// Deterministic checkpoint/restore tests: the restore invariant (resuming a
// checkpoint taken at a barrier is observationally identical to never stopping —
// same simulator fingerprints, same driver latency histograms, at any worker
// count), checkpoints straddling in-flight failover machinery (pending replica
// promotion, queued paced backfill), barrier-to-barrier diffs (apply == full
// restore), corruption detection naming the bad section, and the latency-histogram
// hash memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/cell_worker.h"
#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/sensor/sensor_node.h"
#include "src/util/ckpt.h"
#include "src/workload/query_driver.h"
#include "tests/read_status.h"

namespace presto {
namespace {

// ---------- latency histogram hash ----------

TEST(LatencyHistogramTest, HashIsOrderIndependentAndMemoInvalidates) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(Millis(3));
  a.Record(Millis(70));
  a.Record(Seconds(2));
  b.Record(Seconds(2));
  b.Record(Millis(70));
  b.Record(Millis(3));
  EXPECT_EQ(a.Hash(), b.Hash()) << "recording order must not matter";

  LatencyHistogram c;
  c.Record(Millis(9));
  LatencyHistogram ac = a;
  ac.Merge(c);
  LatencyHistogram ca = c;
  ca.Merge(a);
  EXPECT_EQ(ac.Hash(), ca.Hash()) << "merge must commute";

  // The memo must invalidate on mutation (Record / Merge / LoadState) and stay
  // stable across repeated reads.
  const uint64_t before = a.Hash();
  EXPECT_EQ(a.Hash(), before);
  a.Record(Hours(1));
  EXPECT_NE(a.Hash(), before) << "Record must invalidate the cached hash";

  ByteWriter w;
  a.SaveState(w);
  LatencyHistogram restored;
  ByteReader r{span<const uint8_t>(w.buffer())};
  ASSERT_TRUE(ReadStatus(r, restored).ok());
  EXPECT_EQ(restored.Hash(), a.Hash());
  EXPECT_TRUE(restored == a);
}

// ---------- deployment round trip ----------

DeploymentConfig CkptDeploymentConfig(int threads) {
  DeploymentConfig config;
  config.num_proxies = 4;
  config.sensors_per_proxy = 4;
  config.enable_replication = true;
  config.replication_factor = 2;
  config.promotion_delay = Seconds(20);
  config.sim_threads = threads;
  config.seed = 811;
  return config;
}

QueryDriverParams CkptDriverParams() {
  QueryDriverParams params;
  params.mix.queries_per_hour = 720.0;
  params.mix.num_sensors = 0;  // whole population
  params.mix.past_fraction = 0.25;
  params.mix.mean_past_age = Minutes(15);
  params.mix.max_past_age = Minutes(30);
  params.mix.min_tolerance = 2.0;
  params.mix.max_tolerance = 3.0;
  params.mix.seed = 812;
  return params;
}

TEST(DeploymentCheckpointTest, RoundTripMatchesUninterruptedRunAtAnyThreadCount) {
  for (const int threads : {1, 8}) {
    const SimTime ckpt_at = Hours(1) + Minutes(5);
    const SimTime end = Hours(1) + Minutes(30);
    Checkpoint ckpt;
    uint64_t fp_cont = 0;
    uint64_t hist_cont = 0;
    {
      Deployment deployment(CkptDeploymentConfig(threads));
      deployment.Start();
      deployment.RunUntil(Hours(1));
      QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
      driver.Start(Minutes(25));
      deployment.RunUntil(ckpt_at);
      ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
      deployment.RunUntil(end);
      fp_cont = deployment.sim().fingerprint();
      hist_cont = driver.stats().latency.Hash();
      EXPECT_GT(driver.stats().issued, 100u);
    }
    // Through the wire format, so framing and section checksums are exercised.
    auto decoded = Checkpoint::Decode(span<const uint8_t>(ckpt.Encode()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    {
      Deployment deployment(CkptDeploymentConfig(threads));
      deployment.Start();
      QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
      ASSERT_TRUE(deployment.LoadCheckpoint(*decoded).ok());
      EXPECT_EQ(deployment.sim().Now(), ckpt_at);
      deployment.RunUntil(end);
      EXPECT_EQ(deployment.sim().fingerprint(), fp_cont)
          << "restore at a barrier must be observationally identical to never "
             "stopping (threads="
          << threads << ")";
      EXPECT_EQ(driver.stats().latency.Hash(), hist_cont)
          << "restored driver histogram diverged (threads=" << threads << ")";
    }
  }
}

// Every query pulls from a sensor behind a long LPL preamble, so driver queries
// stay in flight for seconds.
DeploymentConfig SlowPullConfig() {
  DeploymentConfig config = CkptDeploymentConfig(1);
  config.proxy_mode = ProxyMode::kAlwaysPull;
  config.sensor_radio.lpl_interval = Seconds(8);
  return config;
}

// Checkpoint of a deployment with two drivers attached, only driver `active`
// started, taken while some of its queries are in flight.
Checkpoint CheckpointWithDriverQueriesInFlight(int active) {
  Deployment deployment(SlowPullConfig());
  deployment.Start();
  deployment.RunUntil(Hours(1));
  QueryDriver& first = deployment.AttachQueryDriver(CkptDriverParams());
  QueryDriver& second = deployment.AttachQueryDriver(CkptDriverParams());
  (active == 0 ? first : second).Start(Minutes(25));
  deployment.RunUntil(Hours(1) + Minutes(5));
  Checkpoint ckpt;
  EXPECT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  return ckpt;
}

TEST(DeploymentCheckpointTest, RestoreRejectsAnInFlightQueryNamingNoDriver) {
  const Checkpoint by_first = CheckpointWithDriverQueriesInFlight(0);
  Checkpoint by_second = CheckpointWithDriverQueriesInFlight(1);
  // The two "deploy" sections differ only in the in-flight entries' driver index.
  std::vector<uint8_t> deploy = *by_second.Find("deploy");
  const std::vector<uint8_t>& other = *by_first.Find("deploy");
  ASSERT_EQ(deploy.size(), other.size());
  const auto at = std::mismatch(deploy.begin(), deploy.end(), other.begin()).first;
  ASSERT_NE(at, deploy.end()) << "no driver query in flight at the checkpoint";
  ASSERT_EQ(*at, 1);
  *at = 2;  // two drivers are attached: index 2 names none
  by_second.Add("deploy", deploy);
  Deployment restored(SlowPullConfig());
  restored.Start();
  restored.AttachQueryDriver(CkptDriverParams());
  restored.AttachQueryDriver(CkptDriverParams());
  const Status status = restored.LoadCheckpoint(by_second);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

// A checkpoint taken between KillProxy and its promotion event must carry the
// pending promotion (timer in the simulator section, re-captured on restore), and
// one taken mid-backfill must carry the queued paced archive pulls — the restored
// run replays both identically.
TEST(DeploymentCheckpointTest, RestoreStraddlesPendingPromotionAndPacedBackfill) {
  const SimTime kill_at = Minutes(30);
  const SimTime ckpt_promotion = kill_at + Seconds(10);   // promotion fires at +20 s
  const SimTime ckpt_backfill = kill_at + Seconds(26);    // backfill drain underway
  const SimTime revive_at = Minutes(32);
  const SimTime end = Minutes(40);
  const int victim = 1;

  Checkpoint at_promotion;
  Checkpoint at_backfill;
  uint64_t fp_cont = 0;
  uint64_t promotions_cont = 0;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(kill_at);
    deployment.KillProxy(victim);
    deployment.RunUntil(ckpt_promotion);
    ASSERT_TRUE(deployment.SaveCheckpoint(&at_promotion).ok());
    EXPECT_EQ(deployment.shard_stats().promotions, 0u)
        << "the first checkpoint must straddle the promotion, not follow it";
    deployment.RunUntil(ckpt_backfill);
    // Promotions count per sensor chain, one per shard the dead proxy owned.
    EXPECT_GT(deployment.shard_stats().promotions, 0u);
    ASSERT_TRUE(deployment.SaveCheckpoint(&at_backfill).ok());
    deployment.RunUntil(revive_at);
    deployment.ReviveProxy(victim);
    deployment.RunUntil(end);
    fp_cont = deployment.sim().fingerprint();
    promotions_cont = deployment.shard_stats().promotions;
    uint64_t backfills = 0;
    for (int p = 0; p < 4; ++p) {
      backfills += deployment.proxy(p).stats().backfill_pulls;
    }
    EXPECT_GT(backfills, 0u) << "scenario never exercised promotion backfill";
  }
  for (const Checkpoint* ckpt : {&at_promotion, &at_backfill}) {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    ASSERT_TRUE(deployment.LoadCheckpoint(*ckpt).ok());
    deployment.RunUntil(revive_at);
    deployment.ReviveProxy(victim);
    deployment.RunUntil(end);
    EXPECT_EQ(deployment.sim().fingerprint(), fp_cont);
    EXPECT_EQ(deployment.shard_stats().promotions, promotions_cont)
        << "the restored run must replay the straddled promotion";
  }
}

// ---------- barrier-to-barrier diffs ----------

TEST(DeploymentCheckpointTest, DiffApplyEqualsFullRestore) {
  const SimTime b1 = Hours(1) + Minutes(5);
  const SimTime b2 = Hours(1) + Minutes(10);
  const SimTime end = Hours(1) + Minutes(20);
  Checkpoint ckpt1;
  Checkpoint ckpt2;
  uint64_t fp_cont = 0;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Hours(1));
    QueryDriver& driver = deployment.AttachQueryDriver(CkptDriverParams());
    driver.Start(Minutes(15));
    deployment.RunUntil(b1);
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt1).ok());
    deployment.RunUntil(b2);
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt2).ok());
    deployment.RunUntil(end);
    fp_cont = deployment.sim().fingerprint();
  }
  const std::vector<uint8_t> diff = ckpt2.EncodeDiffFrom(ckpt1);
  EXPECT_LT(diff.size(), ckpt2.Encode().size())
      << "a barrier-to-barrier diff should not exceed the full snapshot";
  auto applied = Checkpoint::ApplyDiff(ckpt1, span<const uint8_t>(diff));
  ASSERT_TRUE(applied.ok()) << applied.status().message();
  EXPECT_EQ(applied->Digest(), ckpt2.Digest());

  Deployment deployment(CkptDeploymentConfig(1));
  deployment.Start();
  deployment.AttachQueryDriver(CkptDriverParams());
  ASSERT_TRUE(deployment.LoadCheckpoint(*applied).ok());
  EXPECT_EQ(deployment.sim().Now(), b2);
  deployment.RunUntil(end);
  EXPECT_EQ(deployment.sim().fingerprint(), fp_cont)
      << "restoring base + diff must equal restoring the full second snapshot";
}

// ---------- container encoding ----------

// Sections of assorted sizes, including an empty payload and a name long enough
// for a two-byte length prefix.
Checkpoint MixedCheckpoint() {
  Checkpoint ckpt;
  const std::vector<std::pair<std::string, size_t>> shapes = {
      {"cell0/net", 300}, {"cell0/fed", 0},     {"cell1/net", 1},
      {"cell10/sim", 70000}, {std::string(130, 'x'), 5}, {"fed", 129}};
  uint8_t next = 1;
  for (const auto& [name, size] : shapes) {
    std::vector<uint8_t> payload(size);
    for (uint8_t& b : payload) {
      b = next;
      next = static_cast<uint8_t>(next * 31 + 7);
    }
    ckpt.Add(name, std::move(payload));
  }
  return ckpt;
}

TEST(CheckpointEncodeTest, FilteredEncodeEqualsEncodeOfTheKeptSections) {
  const Checkpoint full = MixedCheckpoint();
  const std::vector<std::pair<std::string, Checkpoint::SectionFilter>> filters = {
      {"none", [](const std::string&) { return false; }},
      {"one", [](const std::string& name) { return name == "cell10/sim"; }},
      {"cell0", [](const std::string& name) { return name.rfind("cell0/", 0) == 0; }},
      {"all", [](const std::string&) { return true; }},
      {"null", nullptr},
  };
  for (const auto& [label, keep] : filters) {
    SCOPED_TRACE(label);
    Checkpoint only;
    for (const Checkpoint::Section& section : full.sections()) {
      if (keep == nullptr || keep(section.name)) {
        only.Add(section.name, section.payload);
      }
    }
    const std::vector<uint8_t> bytes = full.Encode(keep);
    EXPECT_EQ(bytes, only.Encode()) << "same bytes, same section order";
    EXPECT_EQ(bytes.size(), full.EncodedSize(keep));
    EXPECT_EQ(bytes.capacity(), bytes.size()) << "one exact-size allocation";
    // EncodeTo appends the same bytes behind whatever the writer holds.
    ByteWriter w;
    w.WriteU8(0xab);
    full.EncodeTo(w, keep);
    ASSERT_EQ(w.size(), bytes.size() + 1);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), w.buffer().begin() + 1));

    auto decoded = Checkpoint::Decode(span<const uint8_t>(bytes));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(decoded->sections().size(), only.sections().size());
    for (size_t i = 0; i < only.sections().size(); ++i) {
      EXPECT_EQ(decoded->sections()[i].name, only.sections()[i].name);
      EXPECT_EQ(decoded->sections()[i].payload, only.sections()[i].payload);
    }
    EXPECT_EQ(decoded->Digest(), only.Digest());
  }
}

// Checkpoints are version-pinned: a snapshot or diff of the previous version is
// refused with a typed error, never parsed as the current one.
TEST(CheckpointEncodeTest, PreviousVersionIsRefused) {
  const uint32_t previous = Checkpoint::kVersion - 1;
  const Checkpoint ckpt = MixedCheckpoint();
  auto with_version = [](std::vector<uint8_t> bytes, uint32_t version) {
    ByteWriter w;
    w.WriteU32(version);
    std::copy(w.buffer().begin(), w.buffer().end(), bytes.begin() + 4);
    return bytes;
  };
  const std::vector<uint8_t> snapshot = ckpt.Encode();
  ASSERT_EQ(with_version(snapshot, Checkpoint::kVersion), snapshot)
      << "version follows the magic";
  auto old = Checkpoint::Decode(span<const uint8_t>(with_version(snapshot, previous)));
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kInvalidArgument);

  Checkpoint changed = ckpt;
  changed.Add("cell0/sim", {1, 2, 3});
  const std::vector<uint8_t> diff = changed.EncodeDiffFrom(ckpt);
  ASSERT_EQ(with_version(diff, Checkpoint::kVersion), diff);
  auto old_diff =
      Checkpoint::ApplyDiff(ckpt, span<const uint8_t>(with_version(diff, previous)));
  ASSERT_FALSE(old_diff.ok());
  EXPECT_EQ(old_diff.status().code(), StatusCode::kInvalidArgument);
}

// v4 dropped the engine-mode and scheduling-guard flags, the epoch cap and the
// lookahead from the simulator's "sim" section, so a v3 deployment checkpoint's sim
// bytes would misparse under v4. A v3 container (here a real deployment checkpoint
// relabelled 3) must be refused at the header with a typed error, before any
// section is read.
TEST(CheckpointEncodeTest, V3DeploymentCheckpointIsRefused) {
  ASSERT_EQ(Checkpoint::kVersion, 4u);
  Checkpoint ckpt;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Minutes(10));
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  }
  std::vector<uint8_t> bytes = ckpt.Encode();
  ByteWriter v3;
  v3.WriteU32(3);
  std::copy(v3.buffer().begin(), v3.buffer().end(), bytes.begin() + 4);
  auto decoded = Checkpoint::Decode(span<const uint8_t>(bytes));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported version 3"), std::string::npos)
      << decoded.status().message();
}

TEST(CheckpointEncodeTest, DeploymentEncodeIsExactSizeAndTakeSectionsMovesInOrder) {
  Checkpoint ckpt;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Minutes(30));
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt, "cell3/").ok());
    // CheckpointSections names exactly what SaveCheckpoint wrote, in order.
    const std::vector<std::string> names = deployment.CheckpointSections();
    ASSERT_EQ(names.size(), ckpt.sections().size());
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(ckpt.sections()[i].name, "cell3/" + names[i]);
    }
  }
  const std::vector<uint8_t> bytes = ckpt.Encode();
  EXPECT_EQ(bytes.size(), ckpt.EncodedSize());
  EXPECT_EQ(bytes.capacity(), bytes.size());

  const uint64_t digest = ckpt.Digest();
  const std::vector<Checkpoint::Section> copy = ckpt.sections();
  std::vector<Checkpoint::Section> taken = ckpt.TakeSections();
  EXPECT_TRUE(ckpt.sections().empty());
  EXPECT_EQ(ckpt.Find(copy.front().name), nullptr) << "the index empties too";
  EXPECT_EQ(ckpt.Encode(), Checkpoint().Encode());
  ASSERT_EQ(taken.size(), copy.size());
  Checkpoint rebuilt;
  for (size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i].name, copy[i].name);
    EXPECT_EQ(taken[i].payload, copy[i].payload);
    rebuilt.Add(taken[i].name, std::move(taken[i].payload));
  }
  EXPECT_EQ(rebuilt.Digest(), digest);
  EXPECT_EQ(rebuilt.Encode(), bytes);
}

// ---------- corruption and divergence naming ----------

TEST(DeploymentCheckpointTest, CorruptedSectionFailsDecodeNamingTheSection) {
  Checkpoint ckpt;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Minutes(30));
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  }
  const std::vector<uint8_t>* payload = ckpt.Find("proxy/1");
  ASSERT_NE(payload, nullptr);
  ASSERT_GT(payload->size(), 64u);
  std::vector<uint8_t> encoded = ckpt.Encode();
  // Locate proxy/1's payload inside the framed bytes and flip one bit in the
  // middle (serialized cache state): the section checksum must catch it and the
  // decode must fail naming that section, before any state is handed back.
  auto it = std::search(encoded.begin(), encoded.end(), payload->begin(),
                        payload->end());
  ASSERT_NE(it, encoded.end());
  *(it + static_cast<long>(payload->size() / 2)) ^= 0x40;
  auto corrupted = Checkpoint::Decode(span<const uint8_t>(encoded));
  ASSERT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.status().message().find("proxy/1"), std::string::npos)
      << "decode error must name the corrupted section: "
      << corrupted.status().message();
}

TEST(DeploymentCheckpointTest, DiffNamesThePerturbedProxyCacheFirst) {
  Checkpoint ckpt;
  {
    Deployment deployment(CkptDeploymentConfig(1));
    deployment.Start();
    deployment.RunUntil(Minutes(30));
    ASSERT_TRUE(deployment.SaveCheckpoint(&ckpt).ok());
  }
  // Perturb one byte of proxy 2's serialized cache: the divergence report must
  // lead with exactly that subsystem section (save order), the bisect hint
  // presto_ckpt diff prints.
  Checkpoint perturbed = ckpt;
  const std::vector<uint8_t>* payload = perturbed.Find("proxy/2");
  ASSERT_NE(payload, nullptr);
  std::vector<uint8_t> bytes = *payload;
  bytes[bytes.size() / 2] ^= 0x01;
  perturbed.Add("proxy/2", std::move(bytes));

  const std::vector<std::string> divergent = ckpt.DivergentSections(perturbed);
  ASSERT_EQ(divergent.size(), 1u);
  EXPECT_EQ(divergent.front(), "proxy/2");
  EXPECT_NE(ckpt.Digest(), perturbed.Digest());
  EXPECT_TRUE(ckpt.DivergentSections(ckpt).empty());
}

// ---------- federation round trip ----------

FederationConfig CkptFederationConfig() {
  FederationConfig config;
  config.num_cells = 2;
  config.cell.num_proxies = 2;
  config.cell.sensors_per_proxy = 8;
  config.cell.enable_replication = true;
  config.cell.replication_factor = 2;
  config.cell.sim_threads = 2;
  config.link.latency = Millis(250);
  config.epoch = Millis(250);
  config.seed = 911;
  return config;
}

std::vector<int> AttachFedDrivers(Federation& fed) {
  std::vector<int> drivers;
  for (int c = 0; c < fed.num_cells(); ++c) {
    QueryDriverParams params;
    params.mix.queries_per_hour = 1800.0;
    params.mix.num_sensors = 0;  // whole federation namespace
    params.mix.past_fraction = 0.2;
    params.mix.mean_past_age = Minutes(5);
    params.mix.max_past_age = Minutes(10);
    params.mix.min_tolerance = 1.5;
    params.mix.max_tolerance = 3.0;
    params.mix.seed = 913 + static_cast<uint64_t>(c);
    drivers.push_back(fed.AttachDriver(c, params));
  }
  return drivers;
}

TEST(FederationCheckpointTest, RoundTripCarriesInFlightCrossCellQueries) {
  const SimTime ckpt_at = Minutes(6);
  const SimTime end = Minutes(10);
  Checkpoint ckpt;
  uint64_t fp_cont = 0;
  uint64_t hist_cont = 0;
  uint64_t forwarded_cont = 0;
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    const std::vector<int> drivers = AttachFedDrivers(fed);
    fed.RunUntil(Minutes(5));
    for (const int d : drivers) {
      fed.StartDriver(d, 0);
    }
    fed.RunUntil(ckpt_at);
    ASSERT_TRUE(fed.SaveCheckpoint(&ckpt).ok());
    fed.RunUntil(end);
    fp_cont = fed.fingerprint();
    LatencyHistogram merged;
    for (const int d : drivers) {
      merged.Merge(fed.DriverStats(d).latency);
    }
    hist_cont = merged.Hash();
    forwarded_cont = fed.stats().forwarded;
    EXPECT_GT(forwarded_cont, 0u) << "no cross-cell traffic: the test is vacuous";
  }
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    const std::vector<int> drivers = AttachFedDrivers(fed);
    ASSERT_TRUE(fed.LoadCheckpoint(ckpt).ok());
    EXPECT_EQ(fed.Now(), ckpt_at);
    fed.RunUntil(end);
    EXPECT_EQ(fed.fingerprint(), fp_cont);
    LatencyHistogram merged;
    for (const int d : drivers) {
      merged.Merge(fed.DriverStats(d).latency);
    }
    EXPECT_EQ(merged.Hash(), hist_cont);
    EXPECT_EQ(fed.stats().forwarded, forwarded_cont);
  }
}

// ---------- enum range checks ----------

// The generic integer and enum codecs refuse a varint the field's type cannot hold
// instead of wrapping it: 257 would otherwise restore a uint8_t enum as 1, a valid
// value that passes every later range check.
TEST(CkptEnumTest, OverflowingEnumVarintIsDataLoss) {
  ByteWriter w;
  w.WriteVarU64(257);
  AnswerSource source = AnswerSource::kFailed;
  ByteReader r{span<const uint8_t>(w.buffer())};
  EXPECT_EQ(ReadStatus(r, source).code(), StatusCode::kDataLoss);
  EXPECT_EQ(source, AnswerSource::kFailed) << "a refused read leaves the value alone";
  // Integer fields follow the same rule (a queued network message's uint16_t type,
  // an int lane).
  ByteWriter wide;
  wide.WriteVarU64(70000);
  ByteReader narrow{span<const uint8_t>(wide.buffer())};
  uint16_t type = 0;
  EXPECT_EQ(ReadStatus(narrow, type).code(), StatusCode::kDataLoss);
  ByteWriter wide_lane;
  wide_lane.WriteVarI64(int64_t{1} << 40);
  ByteReader narrow_lane{span<const uint8_t>(wide_lane.buffer())};
  int lane = 0;
  EXPECT_EQ(ReadStatus(narrow_lane, lane).code(), StatusCode::kDataLoss);

  // The same planted tag inside a QueryAnswer body (and so inside a pending store
  // query, a parked deployment result or trunk mail) fails the whole decode.
  QueryAnswer answer;
  answer.status = OkStatus();
  answer.source = AnswerSource::kExtrapolated;
  answer.samples = {Sample{Seconds(31), 20.5}};
  ByteWriter good;
  CkptWrite(good, answer);
  ByteWriter planted;
  CkptWrite(planted, answer.status);
  planted.WriteVarU64(257);
  const size_t header = planted.buffer().size();
  std::vector<uint8_t> bytes = planted.TakeBuffer();
  // The original body carries the source in one byte right after the status.
  bytes.insert(bytes.end(), good.buffer().begin() + static_cast<ptrdiff_t>(header - 1),
               good.buffer().end());
  QueryAnswer decoded;
  ByteReader body{span<const uint8_t>(bytes)};
  EXPECT_EQ(ReadStatus(body, decoded).code(), StatusCode::kDataLoss);
  ByteReader intact{span<const uint8_t>(good.buffer())};
  ASSERT_TRUE(ReadStatus(intact, decoded).ok());
  EXPECT_EQ(decoded.source, AnswerSource::kExtrapolated);
}

// A sensor section's push policy and wavelet kind: an overflowing varint and an
// in-range byte naming no enumerator both restore to DataLoss.
TEST(CkptEnumTest, SensorSectionRejectsBadPolicyAndCodecKind) {
  Simulator sim;
  Network net(&sim, NetworkParams{}, 1);
  SensorNodeConfig config;
  config.id = 100;
  config.proxy_id = 1;
  SensorNode sensor(&sim, &net, config, [](SimTime) { return 20.0; });
  ByteWriter w;
  sensor.SaveState(w);
  const std::vector<uint8_t> blob = w.TakeBuffer();
  // Field offsets: proxy id, sensing period, then the policy; value_delta,
  // model_tolerance, batch_interval and compress sit between it and the kind.
  ByteReader r{span<const uint8_t>(blob)};
  NodeId proxy_id = 0;
  Duration period = 0;
  ASSERT_TRUE(ReadStatus(r, proxy_id).ok());
  ASSERT_TRUE(ReadStatus(r, period).ok());
  const size_t policy_at = blob.size() - r.remaining();
  PushPolicy policy{};
  double value_delta = 0.0;
  double tolerance = 0.0;
  Duration batch_interval = 0;
  bool compress = false;
  ASSERT_TRUE(ReadStatus(r, policy).ok());
  ASSERT_TRUE(ReadStatus(r, value_delta).ok());
  ASSERT_TRUE(ReadStatus(r, tolerance).ok());
  ASSERT_TRUE(ReadStatus(r, batch_interval).ok());
  ASSERT_TRUE(ReadStatus(r, compress).ok());
  const size_t kind_at = blob.size() - r.remaining();
  ASSERT_EQ(blob[policy_at], static_cast<uint8_t>(config.policy));
  ASSERT_EQ(blob[kind_at], static_cast<uint8_t>(config.codec.kind));

  const auto load = [&](size_t at, std::vector<uint8_t> tag) {
    std::vector<uint8_t> bytes = blob;
    bytes.erase(bytes.begin() + static_cast<ptrdiff_t>(at));
    bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at), tag.begin(), tag.end());
    Simulator fresh_sim;
    Network fresh_net(&fresh_sim, NetworkParams{}, 1);
    SensorNode fresh(&fresh_sim, &fresh_net, config, [](SimTime) { return 20.0; });
    ByteReader reader{span<const uint8_t>(bytes)};
    return ReadStatus(reader, fresh);
  };
  ASSERT_TRUE(load(policy_at, {blob[policy_at]}).ok()) << "the unplanted bytes restore";
  const std::vector<uint8_t> varint_257 = {0x81, 0x02};
  EXPECT_EQ(load(policy_at, varint_257).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load(policy_at, {5}).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load(kind_at, varint_257).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load(kind_at, {2}).code(), StatusCode::kDataLoss);
}

// A value that fits the enum's type but names no enumerator (QueryType 9) is data
// loss wherever an enum is read: in a pending cross-cell query of a federation
// checkpoint section, and in the bootstrap frame a worker builds its cells from.
TEST(CkptEnumTest, InTypeValueNamingNoEnumeratorIsDataLoss) {
  QueryType type = QueryType::kNow;
  const std::vector<uint8_t> nine = {9};
  ByteReader r{span<const uint8_t>(nine)};
  EXPECT_EQ(ReadStatus(r, type).code(), StatusCode::kDataLoss);
  EXPECT_EQ(type, QueryType::kNow) << "a refused read leaves the value alone";

  Checkpoint ckpt;
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    const std::vector<int> drivers = AttachFedDrivers(fed);
    fed.RunUntil(Minutes(5));
    for (const int d : drivers) {
      fed.StartDriver(d, 0);
    }
    fed.RunUntil(Minutes(6));
    ASSERT_TRUE(fed.SaveCheckpoint(&ckpt).ok());
  }
  // "cell<i>/fed": the counters, one trunk per other cell, the pending count, then
  // each pending query's id and spec, whose first byte is its type.
  std::string section;
  size_t type_at = 0;
  for (int c = 0; c < 2 && section.empty(); ++c) {
    const std::string name = "cell" + std::to_string(c) + "/fed";
    const std::vector<uint8_t>* payload = ckpt.Find(name);
    ASSERT_NE(payload, nullptr);
    ByteReader fields{span<const uint8_t>(*payload)};
    FedCell::Counters counters;
    SimTime clear_at = 0;
    CellLinkStats link;
    uint64_t pending = 0;
    uint64_t qid = 0;
    ASSERT_TRUE(ReadStatus(fields, counters).ok());
    ASSERT_TRUE(ReadStatus(fields, clear_at).ok());
    ASSERT_TRUE(ReadStatus(fields, link).ok());
    ASSERT_TRUE(ReadStatus(fields, pending).ok());
    if (pending > 0) {
      ASSERT_TRUE(ReadStatus(fields, qid).ok());
      section = name;
      type_at = payload->size() - fields.remaining();
    }
  }
  ASSERT_FALSE(section.empty()) << "no cross-cell query in flight: the test is vacuous";
  std::vector<uint8_t> planted = *ckpt.Find(section);
  ASSERT_LE(planted[type_at], static_cast<uint8_t>(QueryType::kPast));
  planted[type_at] = 9;
  Checkpoint bad = ckpt;
  bad.Add(section, planted);
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    AttachFedDrivers(fed);
    EXPECT_EQ(fed.LoadCheckpoint(bad).code(), StatusCode::kDataLoss);
  }
  {
    Federation fed(CkptFederationConfig());
    fed.Start();
    AttachFedDrivers(fed);
    EXPECT_TRUE(fed.LoadCheckpoint(ckpt).ok()) << "the unplanted bytes restore";
  }

  // The bootstrap: num_cells, then the cell template's proxies and sensors per
  // proxy, then its shard policy.
  const std::vector<uint8_t> boot = EncodeBootstrap(CkptFederationConfig(), 0, 1);
  ByteReader head{span<const uint8_t>(boot)};
  int num_cells = 0;
  int num_proxies = 0;
  int sensors_per_proxy = 0;
  ASSERT_TRUE(ReadStatus(head, num_cells).ok());
  ASSERT_TRUE(ReadStatus(head, num_proxies).ok());
  ASSERT_TRUE(ReadStatus(head, sensors_per_proxy).ok());
  const size_t policy_at = boot.size() - head.remaining();
  ASSERT_EQ(boot[policy_at], static_cast<uint8_t>(ShardPolicy::kGeographic));
  std::vector<uint8_t> bad_boot = boot;
  bad_boot[policy_at] = 9;
  FederationConfig config;
  int worker_index = 0;
  int num_workers = 0;
  EXPECT_EQ(DecodeBootstrap(span<const uint8_t>(bad_boot), &config, &worker_index,
                            &num_workers)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(
      DecodeBootstrap(span<const uint8_t>(boot), &config, &worker_index, &num_workers)
          .ok());
}

// ---------- golden bytes ----------
//
// One fixed, hand-built instance of each serialized record and stats block,
// encoded through its field list and compared with recorded checkpoint bytes. A
// round trip cannot see two fields swapped in a list; these bytes can. No
// simulation runs, so they do not depend on the compiler or the host.

QueryAnswer GoldenAnswer() {
  QueryAnswer v;
  v.status = UnavailableError("owner down");
  v.source = AnswerSource::kSensorPull;
  v.samples = {Sample{Seconds(31), 20.5}, Sample{Seconds(62), -1.25}};
  v.value = -1.25;
  v.error_estimate = 0.125;
  v.energy_j = 3.5e-4;
  v.issued_at = Seconds(100);
  v.completed_at = Seconds(103);
  return v;
}

QuerySpec GoldenQuerySpec() {
  QuerySpec v;
  v.type = QueryType::kPast;
  v.sensor_id = 2003;
  v.range = TimeInterval{Hours(3), Hours(5)};
  v.tolerance = 0.75;
  v.latency_bound = Seconds(12);
  return v;
}

FederationQuerySpec GoldenFederationQuerySpec() {
  FederationQuerySpec v;
  v.type = QueryType::kPast;
  v.fed_sensor = 517;
  v.range = TimeInterval{Hours(1), Hours(2)};
  v.tolerance = 1.5;
  v.latency_bound = Minutes(2);
  return v;
}

UnifiedQueryResult GoldenUnifiedQueryResult() {
  UnifiedQueryResult v;
  v.answer = GoldenAnswer();
  v.served_by = 2;
  v.index_hops = 3;
  v.used_replica = true;
  v.issued_at = Seconds(99);
  v.completed_at = Seconds(104);
  return v;
}

QueryDriverStats GoldenDriverStats() {
  QueryDriverStats v;
  v.issued = 40;
  v.completed = 38;
  v.failed = 2;
  v.cross_cell = 7;
  v.by_source = {10, 20, 5, 3};
  v.latency_ms.Add(12.5);
  v.latency_ms.Add(250.0);
  v.latency.Record(Millis(12));
  v.latency.Record(Seconds(2));
  v.energy_j = 0.5;
  v.energy_now_j = 0.25;
  v.energy_past_j = 0.25;
  v.energized = 9;
  v.energy_by_cell_j = {{0, 0.125}, {3, 0.375}};
  return v;
}

FedMail GoldenFedMail() {
  FedMail v;
  v.source_cell = 1;
  v.target_cell = 3;
  v.time = Seconds(7);
  v.op = kFedOpComplete;
  v.qid = 12345;
  v.body = {1, 2, 3, 250};
  return v;
}

FedCell::Counters GoldenCounters() {
  FedCell::Counters v;
  v.next_qid = 44;
  v.queries = 40;
  v.local = 30;
  v.forwarded = 10;
  v.failed = 2;
  v.orphans = 1;
  return v;
}

FederationTrunkTotals GoldenTrunks() {
  FederationTrunkTotals v;
  v.messages = 11;
  v.bytes = 2222;
  return v;
}

FedCellSnapshot GoldenSnapshot() {
  FedCellSnapshot v;
  v.sim_fingerprint = 0xfeedface12345678ull;
  v.events = 987654;
  v.counters = GoldenCounters();
  v.trunks = GoldenTrunks();
  v.drivers = {GoldenDriverStats(), QueryDriverStats{}};
  return v;
}

CachedValue GoldenCachedValue() {
  CachedValue v;
  v.value = 21.375;
  v.source = CacheSource::kPulled;
  v.inserted_at = Seconds(500);
  return v;
}

ProxyStats GoldenProxyStats() {
  ProxyStats v;
  v.pushes_received = 1;
  v.push_samples = 2;
  v.queries = 3;
  v.cache_hits = 4;
  v.extrapolations = 5;
  v.pulls = 6;
  v.coalesced_pulls = 7;
  v.pull_timeouts = 8;
  v.failures = 9;
  v.degraded_answers = 10;
  v.model_sends = 11;
  v.config_sends = 12;
  v.replica_updates = 13;
  v.promotions = 14;
  v.demotions = 15;
  v.snapshots_sent = 16;
  v.backfill_pulls = 17;
  v.now_latency_ms.Add(4.5);
  v.past_latency_ms.Add(1200.0);
  v.past_latency_ms.Add(800.25);
  return v;
}

CacheStats GoldenCacheStats() {
  CacheStats v;
  v.inserts = 300;
  v.refinements = 4;
  v.downgrades_rejected = 5;
  v.evictions = 6;
  return v;
}

NetStats GoldenNetStats() {
  NetStats v;
  v.messages_sent = 101;
  v.messages_delivered = 99;
  v.messages_dropped = 2;
  v.frames_sent = 150;
  v.frame_retries = 7;
  v.wired_messages = 30;
  v.batch_flushes = 8;
  v.batched_messages = 21;
  v.batches_abandoned = 1;
  v.cross_lane_sends = 13;
  return v;
}

NodeNetStats GoldenNodeNetStats() {
  NodeNetStats v;
  v.messages_sent = 51;
  v.messages_received = 49;
  v.messages_dropped = 2;
  v.bursts = 20;
  v.frames_sent = 70;
  v.frame_retries = 3;
  v.bytes_sent = 4096;
  v.cross_lane_sends = 5;
  return v;
}

CellLinkStats GoldenCellLinkStats() {
  CellLinkStats v;
  v.messages = 12;
  v.bytes = 3456;
  v.queued = 2;
  v.busy = Micros(789);
  return v;
}

FlashStats GoldenFlashStats() {
  FlashStats v;
  v.page_reads = 64;
  v.page_writes = 128;
  v.block_erases = 3;
  v.busy_time = Millis(17);
  return v;
}

ArchiveStats GoldenArchiveStats() {
  ArchiveStats v;
  v.records_appended = 1000;
  v.records_read = 200;
  v.aging_passes = 2;
  v.records_aged = 150;
  v.pages_skipped = 1;
  v.appends_rejected = 4;
  return v;
}

UnifiedStoreStats GoldenStoreStats() {
  UnifiedStoreStats v;
  v.queries = 77;
  v.routed = 70;
  v.failovers = 5;
  v.unroutable = 2;
  v.total_index_hops = 140;
  v.reassignments = 6;
  return v;
}

SensorNode::Stats GoldenSensorStats() {
  SensorNode::Stats v;
  v.samples = 2800;
  v.pushes = 40;
  v.pushed_samples = 90;
  v.suppressed = 2710;
  v.model_checks = 2500;
  v.model_updates = 3;
  v.config_updates = 2;
  v.archive_queries = 6;
  v.compressed_bytes = 700;
  v.uncompressed_bytes = 1440;
  return v;
}

Deployment::ShardMgmtStats GoldenShardStats() {
  Deployment::ShardMgmtStats v;
  v.promotions = 3;
  v.handbacks = 2;
  v.migrations = 5;
  v.rebalance_sweeps = 4;
  v.last_promotion_at = Hours(6);
  return v;
}

template <typename T>
std::string Hex(const T& v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  ByteWriter w;
  CkptWrite(w, v);
  std::string out;
  for (const uint8_t b : w.buffer()) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(CkptGoldenTest, FieldListsWriteTheRecordedBytes) {
  const std::vector<std::tuple<std::string, std::string, std::string>> cases = {
      {"QuerySpec", Hex(GoldenQuerySpec()),
       "01d30f80b0d7bb5080d0918e8601000000000000e83f80ecb80b"},
      {"FederationQuerySpec", Hex(GoldenFederationQuerySpec()),
       "018a0880909de91a80a0bad235000000000000f83f80b8b872"},
      {"UnifiedQueryResult", Hex(GoldenUnifiedQueryResult()),
       "040a6f776e657220646f776e02028097c81d000000000080344080ae903b00000000"
       "0000f4bf000000000000f4bf000000000000c03fc7bab88d06f0363f8084af5f809f"
       "9d6202060180fbb45e80a89763"},
      {"QueryAnswer", Hex(GoldenAnswer()),
       "040a6f776e657220646f776e02028097c81d000000000080344080ae903b00000000"
       "0000f4bf000000000000f4bf000000000000c03fc7bab88d06f0363f8084af5f809f"
       "9d62"},
      {"QueryDriverStats", Hex(GoldenDriverStats()),
       "282602070a1405030200000000000029400000000000406f40000000000000000000"
       "00000000010000000000000100000000000000000000000000000000000000000000"
       "000000e03f000000000000d03f000000000000d03f090200000000000000c03f0600"
       "0000000000d83f"},
      {"FedMail", Hex(GoldenFedMail()),
       "020680bfd60602b96004010203fa"},
      {"FedCellSnapshot", Hex(GoldenSnapshot()),
       "f8acd191e1d9fef6fe0186a43c2c281e0a02010bae1102282602070a140503020000"
       "0000000029400000000000406f400000000000000000000000000001000000000000"
       "0100000000000000000000000000000000000000000000000000e03f000000000000"
       "d03f000000000000d03f090200000000000000c03f06000000000000d83f00000000"
       "00000000000000000000000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000000000000000"
       "000000"},
      {"CachedValue", Hex(GoldenCachedValue()),
       "0000000000603540028094ebdc03"},
      {"FederationTrunkTotals", Hex(GoldenTrunks()),
       "0bae11"},
      {"FedCell::Counters", Hex(GoldenCounters()),
       "2c281e0a0201"},
      {"ProxyStats", Hex(GoldenProxyStats()),
       "0102030405060708090a0b0c0d0e0f1011010000000000001240020000000000c092"
       "400000000000028940"},
      {"CacheStats", Hex(GoldenCacheStats()),
       "ac02040506"},
      {"NodeNetStats", Hex(GoldenNodeNetStats()),
       "333102144603802005"},
      {"NetStats", Hex(GoldenNetStats()),
       "6563029601071e0815010d"},
      {"CellLinkStats", Hex(GoldenCellLinkStats()),
       "0c801b02aa0c"},
      {"FlashStats", Hex(GoldenFlashStats()),
       "40800103d08902"},
      {"ArchiveStats", Hex(GoldenArchiveStats()),
       "e807c8010296010104"},
      {"UnifiedStoreStats", Hex(GoldenStoreStats()),
       "4d4605028c0106"},
      {"SensorNode::Stats", Hex(GoldenSensorStats()),
       "f015285a9615c413030206bc05a00b"},
      {"Deployment::ShardMgmtStats", Hex(GoldenShardStats()),
       "0302050480e0aef7a001"},
  };
  for (const auto& [name, got, want] : cases) {
    EXPECT_EQ(got, want) << name;
  }
}

// A Status is its code and its message: an OK status and a bare error write an empty
// string, and each reads back as written.
TEST(CkptGoldenTest, StatusWritesItsCodeAndMessage) {
  const std::vector<std::pair<Status, std::string>> cases = {
      {OkStatus(), "0000"},
      {NotFoundError(""), "0100"},
      {DataLossError("x"), "080178"},
  };
  for (const auto& [status, hex] : cases) {
    EXPECT_EQ(Hex(status), hex);
    ByteWriter w;
    CkptWrite(w, status);
    const std::vector<uint8_t> bytes = w.TakeBuffer();
    ByteReader r(bytes);
    Status back = InternalError("overwritten");
    ASSERT_TRUE(ReadStatus(r, back).ok());
    EXPECT_EQ(back.code(), status.code());
    EXPECT_EQ(back.message(), status.message());
  }
}

// The query path's FedMail body: a 20-sample answer writes the same bytes into a
// fresh writer, into one reserved to its exact size (which it fills in place) and
// behind other bytes; the bytes read back whole, and every strict prefix is refused.
TEST(CkptCodecTest, QueryResultBodyIsWriterIndependentAndTruncationSafe) {
  UnifiedQueryResult v = GoldenUnifiedQueryResult();
  v.answer.status = OkStatus();
  v.answer.samples.clear();
  for (int i = 0; i < 20; ++i) {
    v.answer.samples.push_back(Sample{Hours(30) + i * Seconds(31), 20.0 + 0.25 * i});
  }
  ByteWriter fresh;
  CkptWrite(fresh, v);
  const std::vector<uint8_t> bytes = fresh.TakeBuffer();

  ByteWriter reserved;
  reserved.Reserve(bytes.size());
  CkptWrite(reserved, v);
  EXPECT_EQ(reserved.buffer(), bytes);
  EXPECT_EQ(reserved.buffer().capacity(), bytes.size()) << "reserved room used in place";

  ByteWriter behind;
  behind.WriteString("prefix");
  CkptWrite(behind, v);
  ASSERT_EQ(behind.size(), bytes.size() + 7);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), behind.buffer().begin() + 7));

  UnifiedQueryResult back;
  ByteReader r(bytes);
  ASSERT_TRUE(ReadStatus(r, back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Hex(back), Hex(v));
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    ByteReader short_reader(prefix);
    UnifiedQueryResult partial;
    EXPECT_FALSE(ReadStatus(short_reader, partial).ok()) << "prefix " << len;
  }
}

}  // namespace
}  // namespace presto
