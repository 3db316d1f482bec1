#ifndef MUDS_COMMON_SIMD_H_
#define MUDS_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

// Portable SIMD wrapper for the PLI hot kernels (probe-table fill, cluster
// scans, bitmap-mask violation tests). The instruction set is selected at
// compile time: AVX2 when the build enables it (the top-level CMakeLists
// probes the host and adds -mavx2 when it runs), NEON on AArch64, and a
// scalar fallback everywhere else. MUDS_SIMD_OFF (cmake -DMUDS_SIMD=off)
// forces the scalar fallback at compile time.
//
// Runtime dispatch is deliberately a single global kill switch rather than
// per-call function pointers: ForceScalar(true) routes every kernel through
// the scalar path, which is how the benches measure SIMD-vs-scalar on one
// binary and how muds_diff / the fuzzers exercise both code paths. All
// kernels are pure and produce identical results at every level.
#if defined(MUDS_SIMD_OFF)
// Compile-time scalar build.
#elif defined(__AVX2__)
#define MUDS_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON)
#define MUDS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace muds {
namespace simd {

enum class Level { kScalar, kAvx2, kNeon };

#if defined(MUDS_SIMD_AVX2)
inline constexpr Level kCompiledLevel = Level::kAvx2;
#elif defined(MUDS_SIMD_NEON)
inline constexpr Level kCompiledLevel = Level::kNeon;
#else
inline constexpr Level kCompiledLevel = Level::kScalar;
#endif

namespace internal {
inline std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace internal

/// Routes every kernel through the scalar fallback until turned off again.
/// Intended for A/B measurement and differential testing; results are
/// identical either way.
inline void ForceScalar(bool on) {
  internal::ForceScalarFlag().store(on, std::memory_order_relaxed);
}

inline bool ScalarForced() {
  return internal::ForceScalarFlag().load(std::memory_order_relaxed);
}

/// The level the kernels will actually run at right now.
inline Level ActiveLevel() {
  return ScalarForced() ? Level::kScalar : kCompiledLevel;
}

inline const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
    case Level::kScalar:
      return "scalar";
  }
  return "scalar";
}

inline const char* ActiveLevelName() { return LevelName(ActiveLevel()); }

/// Fills dst[0..n) with `value` — the probe-table reset.
inline void FillI32(int32_t* dst, size_t n, int32_t value) {
  size_t i = 0;
#if defined(MUDS_SIMD_AVX2)
  if (!ScalarForced()) {
    const __m256i v = _mm256_set1_epi32(value);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    }
  }
#elif defined(MUDS_SIMD_NEON)
  if (!ScalarForced()) {
    const int32x4_t v = vdupq_n_s32(value);
    for (; i + 4 <= n; i += 4) vst1q_s32(dst + i, v);
  }
#endif
  for (; i < n; ++i) dst[i] = value;
}

/// True iff codes[rows[i]] == expected for every i in [0, n) — the
/// cluster-constancy scan of Pli::Refines. AVX2 gathers eight codes per
/// compare; the scalar loop early-exits on the first mismatch.
inline bool AllEqualGather(const int32_t* codes, const int32_t* rows,
                           size_t n, int32_t expected) {
  size_t i = 0;
#if defined(MUDS_SIMD_AVX2)
  if (!ScalarForced()) {
    const __m256i want = _mm256_set1_epi32(expected);
    for (; i + 8 <= n; i += 8) {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
      const __m256i vals = _mm256_i32gather_epi32(codes, idx, 4);
      const __m256i eq = _mm256_cmpeq_epi32(vals, want);
      if (_mm256_movemask_epi8(eq) != -1) return false;
    }
  }
#endif
  for (; i < n; ++i) {
    if (codes[rows[i]] != expected) return false;
  }
  return true;
}

/// True iff any word in w[0..n) has at least two bits set — the violation
/// test over single-word (domain <= 64) bitmap-PLI masks: a cluster whose
/// seen-mask holds two distinct codes breaks the refinement.
inline bool AnyMultiBit(const uint64_t* w, size_t n) {
  size_t i = 0;
#if defined(MUDS_SIMD_AVX2)
  if (!ScalarForced()) {
    const __m256i ones = _mm256_set1_epi64x(1);
    for (; i + 4 <= n; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
      const __m256i lsb_cleared =
          _mm256_and_si256(v, _mm256_sub_epi64(v, ones));
      if (!_mm256_testz_si256(lsb_cleared, lsb_cleared)) return true;
    }
  }
#elif defined(MUDS_SIMD_NEON)
  if (!ScalarForced()) {
    for (; i + 2 <= n; i += 2) {
      const uint64x2_t v = vld1q_u64(w + i);
      const uint64x2_t lsb_cleared =
          vandq_u64(v, vsubq_u64(v, vdupq_n_u64(1)));
      if ((vgetq_lane_u64(lsb_cleared, 0) | vgetq_lane_u64(lsb_cleared, 1)) !=
          0) {
        return true;
      }
    }
  }
#endif
  for (; i < n; ++i) {
    const uint64_t v = w[i];
    if ((v & (v - 1)) != 0) return true;
  }
  return false;
}

/// True iff any 4-word group in w[0..4*groups) holds at least two set bits
/// in total — the violation test over 4-word (domain <= 256) bitmap-PLI
/// masks. A group violates if one word has two bits or two words are
/// non-zero.
inline bool AnyGroupMultiBit4(const uint64_t* w, size_t groups) {
  size_t g = 0;
#if defined(MUDS_SIMD_AVX2)
  if (!ScalarForced()) {
    const __m256i ones = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();
    for (; g < groups; ++g) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4 * g));
      const __m256i lsb_cleared =
          _mm256_and_si256(v, _mm256_sub_epi64(v, ones));
      if (!_mm256_testz_si256(lsb_cleared, lsb_cleared)) return true;
      // Count non-zero 64-bit lanes: each contributes 8 bytes to the
      // movemask, so a single non-zero lane yields exactly 8 set bits.
      const int zero_mask =
          _mm256_movemask_epi8(_mm256_cmpeq_epi64(v, zero));
      const int nonzero_lanes =
          4 - __builtin_popcount(static_cast<unsigned>(zero_mask)) / 8;
      if (nonzero_lanes >= 2) return true;
    }
    return false;
  }
#endif
  for (; g < groups; ++g) {
    int bits = 0;
    for (size_t j = 0; j < 4; ++j) {
      const uint64_t v = w[4 * g + j];
      if ((v & (v - 1)) != 0) return true;
      bits += v != 0;
      if (bits >= 2) return true;
    }
  }
  return false;
}

}  // namespace simd
}  // namespace muds

#endif  // MUDS_COMMON_SIMD_H_
