// Tests' view of ByteReader's failure rule: one read — a field's CkptRead, or an
// object's LoadState through it — followed by the reader's status.

#ifndef TESTS_READ_STATUS_H_
#define TESTS_READ_STATUS_H_

#include "src/util/bytes.h"
#include "src/util/ckpt.h"
#include "src/util/result.h"

namespace presto {

template <typename T>
Status ReadStatus(ByteReader& r, T& v) {
  CkptRead(r, v);
  return r.status();
}

}  // namespace presto

#endif  // TESTS_READ_STATUS_H_
