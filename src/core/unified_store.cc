#include "src/core/unified_store.h"

#include "src/core/types.h"
#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/logging.h"

namespace presto {

UnifiedStore::UnifiedStore(Simulator* sim, Network* net, uint64_t seed,
                           Duration per_hop_latency)
    : sim_(sim), net_(net), per_hop_latency_(per_hop_latency), index_(seed) {
  PRESTO_CHECK(sim_ != nullptr);
  PRESTO_CHECK(net_ != nullptr);
  sim_->RegisterSink(this);
}

void UnifiedStore::AddProxy(ProxyNode* proxy) {
  PRESTO_CHECK(proxy != nullptr);
  proxies_[proxy->config().id] = proxy;
  proxy->SetPullClient(this);
  for (NodeId sensor : proxy->sensors()) {
    index_.Insert(sensor, proxy->config().id);
  }
}

void UnifiedStore::SetSensorChain(NodeId sensor_id, std::vector<NodeId> chain) {
  chain_of_[sensor_id] = std::move(chain);
}

void UnifiedStore::ReassignSensor(NodeId sensor_id, NodeId new_proxy) {
  PRESTO_CHECK_MSG(FindProxy(new_proxy) != nullptr, "reassigning to an unknown proxy");
  index_.Insert(sensor_id, new_proxy);  // overwrites the previous registration
  ++stats_.reassignments;
}

ProxyNode* UnifiedStore::FindProxy(NodeId proxy_id) const {
  auto it = proxies_.find(proxy_id);
  return it == proxies_.end() ? nullptr : it->second;
}

void UnifiedStore::Query(const QuerySpec& spec, uint64_t token) {
  PRESTO_CHECK_MSG(client_ != nullptr, "store query without a client");
  ++stats_.queries;
  const SimTime issued_at = sim_->Now();
  PendingQuery pending;
  pending.spec = spec;
  pending.token = token;

  const auto complete_now = [this](PendingQuery& p) {
    p.result.completed_at = sim_->Now();
    client_->OnStoreQueryDone(p.token, p.result);
  };

  // Resolve the owner through the order-preserving index.
  SkipGraph::SearchStats search = index_.Search(spec.sensor_id);
  stats_.total_index_hops += search.hops;

  pending.result.issued_at = issued_at;
  pending.result.index_hops = search.hops;

  if (!search.found) {
    ++stats_.unroutable;
    pending.result.answer.status = NotFoundError("sensor not in the distributed index");
    complete_now(pending);
    return;
  }

  NodeId proxy_id = static_cast<NodeId>(search.value);
  bool used_replica = false;
  if (net_->IsNodeDown(proxy_id)) {
    // Walk the sensor's own holder chain to the first live proxy with its state. The
    // chain is per-sensor (not per-primary), so it stays correct across cascaded
    // promotions: killing an acting owner falls through to the next holder even
    // before that proxy's own promotion event fires.
    NodeId fallback = 0;
    auto chain = chain_of_.find(spec.sensor_id);
    if (chain != chain_of_.end()) {
      for (NodeId candidate : chain->second) {
        if (candidate == proxy_id || net_->IsNodeDown(candidate)) {
          continue;
        }
        ProxyNode* proxy = FindProxy(candidate);
        if (proxy != nullptr && proxy->ManagesSensor(spec.sensor_id)) {
          fallback = candidate;
          break;
        }
      }
    }
    if (fallback != 0) {
      proxy_id = fallback;
      used_replica = true;
      ++stats_.failovers;
    } else {
      pending.result.answer.status =
          UnavailableError("owning proxy (and all replicas) down");
      complete_now(pending);
      return;
    }
  }
  ProxyNode* proxy = FindProxy(proxy_id);
  if (proxy == nullptr || !proxy->ManagesSensor(spec.sensor_id)) {
    ++stats_.unroutable;
    pending.result.answer.status =
        NotFoundError("index points at a proxy without this sensor");
    complete_now(pending);
    return;
  }
  ++stats_.routed;
  pending.result.served_by = proxy_id;
  pending.result.used_replica = used_replica;

  // Forwarding the query across `hops` proxies costs wired latency each way. The
  // execute + complete stages run as typed events in the serving proxy's lane.
  pending.route_delay = per_hop_latency_ * (search.hops + 1);
  const Duration route_delay = pending.route_delay;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(pending_m_);
    id = next_query_id_++;
    pending_.emplace(id, std::move(pending));
  }
  EventPayload payload;
  payload.a = id;
  payload.b = 0;  // stage: execute on the proxy
  sim_->ScheduleEventAt(sim_->Now() + route_delay, EventKind::kQuery, this,
                        std::move(payload), net_->NodeLane(proxy_id));
}

UnifiedStore::PendingQuery* UnifiedStore::FindPending(uint64_t id) {
  std::lock_guard<std::mutex> lock(pending_m_);
  auto it = pending_.find(id);
  return it == pending_.end() ? nullptr : &it->second;
}

void UnifiedStore::OnPullDone(uint64_t token, const QueryAnswer& answer) {
  // Proxy-level completion, running in the serving proxy's lane; the token is the
  // store query id. Record the answer and schedule the return hop.
  PendingQuery* done = FindPending(token);
  PRESTO_CHECK(done != nullptr);
  done->result.answer = answer;
  EventPayload complete;
  complete.a = token;
  complete.b = 1;  // stage: return hop + completion
  sim_->ScheduleEventAt(sim_->Now() + done->route_delay, EventKind::kQuery, this,
                        std::move(complete));
}

void UnifiedStore::OnSimEvent(EventKind kind, EventPayload& payload) {
  PRESTO_CHECK(kind == EventKind::kQuery);
  const uint64_t id = payload.a;
  if (payload.b == 0) {
    // Execute stage, running in the serving proxy's lane. The entry outlives the
    // lock: map nodes are stable and only this query's events touch it. The proxy
    // answers through OnPullDone (possibly synchronously, on a cache hit).
    PendingQuery* pending = FindPending(id);
    PRESTO_CHECK(pending != nullptr);
    ProxyNode* proxy = FindProxy(pending->result.served_by);
    PRESTO_CHECK(proxy != nullptr);
    const QuerySpec& spec = pending->spec;
    if (spec.type == QueryType::kNow) {
      proxy->QueryNow(spec.sensor_id, spec.tolerance, spec.latency_bound, id);
    } else {
      proxy->QueryPast(spec.sensor_id, spec.range, spec.tolerance, id);
    }
    return;
  }
  PendingQuery done;
  {
    std::lock_guard<std::mutex> lock(pending_m_);
    auto it = pending_.find(id);
    PRESTO_CHECK(it != pending_.end());
    done = std::move(it->second);
    pending_.erase(it);
  }
  done.result.completed_at = sim_->Now();
  client_->OnStoreQueryDone(done.token, done.result);
}

Status UnifiedStore::SaveState(ByteWriter& w) const {
  // Runs from control context at a barrier: no lane is executing, so the pending map
  // is stable without the mutex.
  index_.SaveState(w);
  CkptWrite(w, chain_of_);
  CkptWrite(w, stats_.queries);
  CkptWrite(w, stats_.routed);
  CkptWrite(w, stats_.failovers);
  CkptWrite(w, stats_.unroutable);
  CkptWrite(w, stats_.total_index_hops);
  CkptWrite(w, stats_.reassignments);
  CkptWrite(w, next_query_id_);
  w.WriteVarU64(pending_.size());
  for (const auto& [id, pending] : pending_) {
    CkptWrite(w, id);
    CkptWrite(w, pending.spec);
    CkptWrite(w, pending.result);
    CkptWrite(w, pending.token);
    CkptWrite(w, pending.route_delay);
  }
  return OkStatus();
}

Status UnifiedStore::LoadState(ByteReader& r) {
  PRESTO_RETURN_IF_ERROR(index_.LoadState(r));
  CKPT_READ(r, chain_of_);
  CKPT_READ(r, stats_.queries);
  CKPT_READ(r, stats_.routed);
  CKPT_READ(r, stats_.failovers);
  CKPT_READ(r, stats_.unroutable);
  CKPT_READ(r, stats_.total_index_hops);
  CKPT_READ(r, stats_.reassignments);
  CKPT_READ(r, next_query_id_);
  auto count = r.ReadVarU64();
  if (!count.ok()) {
    return count.status();
  }
  if (*count > r.remaining()) {
    return DataLossError("store restore: pending count exceeds section bytes");
  }
  pending_.clear();
  for (uint64_t i = 0; i < *count; ++i) {
    uint64_t id = 0;
    CKPT_READ(r, id);
    PendingQuery pending;
    CKPT_READ(r, pending.spec);
    CKPT_READ(r, pending.result);
    CKPT_READ(r, pending.token);
    CKPT_READ(r, pending.route_delay);
    pending_.emplace(id, std::move(pending));
  }
  return OkStatus();
}

}  // namespace presto
