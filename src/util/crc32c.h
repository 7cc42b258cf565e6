#ifndef LSMLAB_UTIL_CRC32C_H_
#define LSMLAB_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lsmlab::crc32c {

/// Returns crc32c(concat(A, data[0,n-1])) where init is crc32c(A). Pass 0 as
/// init to compute the CRC of `data` alone. Runs the SSE4.2 `crc32`
/// instruction when the CPU has it (checked once, at first call), else a
/// portable table loop; both give bit-identical results.
uint32_t Extend(uint32_t init, const char* data, size_t n);

/// The kernel Extend runs on this CPU: "sse4.2" or "portable".
const char* BackendName();

namespace internal {
/// The portable table loop: Extend's fallback, and the reference that
/// tests compare the hardware kernel against. Not a runtime switch.
uint32_t ExtendPortable(uint32_t init, const char* data, size_t n);
}  // namespace internal

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of `crc`. Storing raw CRCs of data that
/// itself contains CRCs is error prone; on-disk structures store the mask.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace lsmlab::crc32c

#endif  // LSMLAB_UTIL_CRC32C_H_
