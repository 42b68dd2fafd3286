#ifndef CVREPAIR_DC_SCAN_INTERNAL_H_
#define CVREPAIR_DC_SCAN_INTERNAL_H_

// Shared plumbing of the violation and suspect scans (dc/violation.cc)
// and the shared evaluation index (dc/eval_index.cc).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cvrepair {
namespace scan_internal {

// Hash for dictionary-code join keys. Bucket contents are canonicalized
// before enumeration, so bucket order cannot affect results.
struct CodeVecHash {
  size_t operator()(const std::vector<int32_t>& vs) const {
    size_t seed = 0x345678;
    for (int32_t v : vs) {
      seed = seed * 1000003 ^ static_cast<uint32_t>(v);
    }
    return seed;
  }
};

}  // namespace scan_internal
}  // namespace cvrepair

#endif  // CVREPAIR_DC_SCAN_INTERNAL_H_
