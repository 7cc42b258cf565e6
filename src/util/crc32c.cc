#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define LSMLAB_CRC32C_SSE42 1
#else
#define LSMLAB_CRC32C_SSE42 0
#endif

namespace lsmlab::crc32c {

namespace {

// Table-driven CRC-32C (Castagnoli polynomial 0x82f63b78, reflected).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if LSMLAB_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table loop. Only this function is compiled for SSE4.2, so the
// library still runs on CPUs without it; Backend() calls it only after the
// CPU reported the feature.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init,
                                                       const char* data,
                                                       size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // Any alignment.
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseBackend() {
#if LSMLAB_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return ExtendSse42;
  }
#endif
  return internal::ExtendPortable;
}

/// The kernel for this CPU, chosen on first use.
ExtendFn Backend() {
  static const ExtendFn backend = ChooseBackend();
  return backend;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init, const char* data, size_t n) {
  uint32_t crc = init ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init, const char* data, size_t n) {
  return Backend()(init, data, n);
}

const char* BackendName() {
  return Backend() == internal::ExtendPortable ? "portable" : "sse4.2";
}

}  // namespace lsmlab::crc32c
