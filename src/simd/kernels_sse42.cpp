// SSE4.2 kernels (4-wide). Compiled with -msse4.2 -ffp-contract=off; only
// reached after runtime dispatch confirms the host supports SSE4.2.
//
// Bit-identity with the scalar reference holds because every lane performs
// the same IEEE-754 single-precision op sequence (sub, div, floor, cmp,
// add, min/max) the scalar loop performs per element, and all integer
// packing is exact. Helpers are `static` so this TU contributes no symbols
// another TU could fold with (see kernels.h on the ODR hazard).
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels.h"

namespace adaqp::simd {
namespace {

void row_minmax(const float* x, std::size_t n, float* lo, float* hi) {
  std::size_t i = 0;
  float l = x[0], h = x[0];
  if (n >= 4) {
    __m128 vlo = _mm_loadu_ps(x);
    __m128 vhi = vlo;
    for (i = 4; i + 4 <= n; i += 4) {
      const __m128 v = _mm_loadu_ps(x + i);
      vlo = _mm_min_ps(vlo, v);
      vhi = _mm_max_ps(vhi, v);
    }
    float tl[4], th[4];
    _mm_storeu_ps(tl, vlo);
    _mm_storeu_ps(th, vhi);
    l = tl[0];
    h = th[0];
    for (int k = 1; k < 4; ++k) {
      if (tl[k] < l) l = tl[k];
      if (th[k] > h) h = th[k];
    }
  }
  for (; i < n; ++i) {
    if (x[i] < l) l = x[i];
    if (x[i] > h) h = x[i];
  }
  *lo = l;
  *hi = h;
}

/// Quantize 4 lanes: the scalar per-element op sequence, lane-wise.
inline __m128i quant4(__m128 v, __m128 uu, __m128 vzp, __m128 vs, __m128 vlev,
                      __m128 vone, __m128 vzero) {
  const __m128 xs = _mm_div_ps(_mm_sub_ps(v, vzp), vs);
  const __m128 fl = _mm_floor_ps(xs);
  const __m128 frac = _mm_sub_ps(xs, fl);
  const __m128 bump = _mm_and_ps(_mm_cmplt_ps(uu, frac), vone);
  __m128 r = _mm_add_ps(fl, bump);
  r = _mm_min_ps(_mm_max_ps(r, vzero), vlev);
  return _mm_cvttps_epi32(r);
}

/// Scalar tail of the same sequence (identical IEEE ops, so bit-identical).
inline std::uint32_t quant1(float x, float uu, float zp, float scale,
                            float levels) {
  const float xs = (x - zp) / scale;
  const float fl = __builtin_floorf(xs);
  const float frac = xs - fl;
  float r = fl + (uu < frac ? 1.0f : 0.0f);
  if (r < 0.0f) r = 0.0f;
  if (r > levels) r = levels;
  return static_cast<std::uint32_t>(r);
}

/// Combine a 16-byte staging chunk (one quantized value per byte, already
/// < 2^bits) into packed little-endian-within-byte output. `count` values
/// are valid; the rest of the staging bytes must be zero.
inline std::size_t combine16(int bits, const std::uint8_t* s,
                             std::size_t count, std::uint8_t* out) {
  if (count > 16) __builtin_unreachable();  // s is a 16-byte staging chunk
  // Byte counts are written per case with constants so GCC can bound the
  // staging-buffer accesses (a shared (count*bits+7)/8 trips its analysis).
  switch (bits) {
    case 8:
      std::memcpy(out, s, count);
      return count;
    case 4: {
      const std::size_t nbytes = (count + 1) / 2;
      for (std::size_t j = 0; j < nbytes; ++j)
        out[j] = static_cast<std::uint8_t>(s[2 * j] | (s[2 * j + 1] << 4));
      return nbytes;
    }
    default: {  // 2
      const std::size_t nbytes = (count + 3) / 4;
      for (std::size_t j = 0; j < nbytes; ++j)
        out[j] = static_cast<std::uint8_t>(s[4 * j] | (s[4 * j + 1] << 2) |
                                           (s[4 * j + 2] << 4) |
                                           (s[4 * j + 3] << 6));
      return nbytes;
    }
  }
}

/// Store the low byte of each 32-bit lane of q into s[0..3].
inline void store_low_bytes(__m128i q, std::uint8_t* s) {
  const __m128i pick = _mm_set_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                    -1, -1, 12, 8, 4, 0);
  const std::uint32_t packed =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_shuffle_epi8(q, pick)));
  std::memcpy(s, &packed, 4);
}

void quantize_pack(int bits, const float* x, std::size_t n, float zp,
                   float scale, const float* u, std::uint8_t* out) {
  const auto levels = static_cast<float>((1u << bits) - 1u);
  const __m128 vzp = _mm_set1_ps(zp);
  const __m128 vs = _mm_set1_ps(scale);
  const __m128 vlev = _mm_set1_ps(levels);
  const __m128 vone = _mm_set1_ps(1.0f);
  const __m128 vzero = _mm_setzero_ps();
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    for (int k = 0; k < 4; ++k)
      store_low_bytes(quant4(_mm_loadu_ps(x + i + 4 * k),
                             _mm_loadu_ps(u + i + 4 * k), vzp, vs, vlev, vone,
                             vzero),
                      s + 4 * k);
    out += combine16(bits, s, 16, out);
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    std::memset(s, 0, sizeof(s));
    for (std::size_t t = 0; t < rem; ++t)
      s[t] = static_cast<std::uint8_t>(quant1(x[i + t], u[i + t], zp, scale,
                                              levels));
    combine16(bits, s, rem, out);
  }
}

/// Expand one 16-byte packed chunk into one byte per value in s[0..15].
/// `count` values are valid (count <= 16); reads ceil(count*bits/8) bytes.
/// Full chunks (count == 16) take vector paths; tails fall back to the
/// scalar unpack. Both produce the same bytes — integer ops are exact.
inline std::size_t expand16(int bits, const std::uint8_t* packed,
                            std::size_t count, std::uint8_t* s) {
  if (count > 16) __builtin_unreachable();  // s is a 16-byte staging chunk
  switch (bits) {
    case 8:
      std::memcpy(s, packed, count);
      return count;
    case 4: {
      const std::size_t nbytes = (count + 1) / 2;
      if (count == 16) {
        // 8 packed bytes -> 16 nibbles; interleaving low/high nibble
        // vectors restores the little-endian within-byte value order.
        const __m128i v =
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(packed));
        const __m128i lo = _mm_and_si128(v, _mm_set1_epi8(0x0F));
        const __m128i hi =
            _mm_and_si128(_mm_srli_epi16(v, 4), _mm_set1_epi8(0x0F));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(s),
                         _mm_unpacklo_epi8(lo, hi));
        return nbytes;
      }
      for (std::size_t j = 0; j < nbytes; ++j) {
        s[2 * j] = packed[j] & 0x0F;
        s[2 * j + 1] = packed[j] >> 4;
      }
      return nbytes;
    }
    default: {  // 2
      const std::size_t nbytes = (count + 3) / 4;
      if (count == 16) {
        // 4 packed bytes, 4 crumbs each: replicate every byte into 4 lanes,
        // widen to 16 bits, isolate each crumb with its positional mask,
        // and multiply so the crumb lands at bit 6 for a shared >> 6.
        std::uint32_t word;
        std::memcpy(&word, packed, 4);
        const __m128i rep = _mm_shuffle_epi8(
            _mm_cvtsi32_si128(static_cast<int>(word)),
            _mm_set_epi8(3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0));
        const __m128i mask = _mm_set_epi16(0x00C0, 0x0030, 0x000C, 0x0003,
                                           0x00C0, 0x0030, 0x000C, 0x0003);
        const __m128i mult = _mm_set_epi16(1, 4, 16, 64, 1, 4, 16, 64);
        const __m128i zero = _mm_setzero_si128();
        const __m128i lo16 = _mm_srli_epi16(
            _mm_mullo_epi16(
                _mm_and_si128(_mm_unpacklo_epi8(rep, zero), mask), mult),
            6);
        const __m128i hi16 = _mm_srli_epi16(
            _mm_mullo_epi16(
                _mm_and_si128(_mm_unpackhi_epi8(rep, zero), mask), mult),
            6);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(s),
                         _mm_packus_epi16(lo16, hi16));
        return nbytes;
      }
      for (std::size_t j = 0; j < nbytes; ++j) {
        s[4 * j] = packed[j] & 3;
        s[4 * j + 1] = (packed[j] >> 2) & 3;
        s[4 * j + 2] = (packed[j] >> 4) & 3;
        s[4 * j + 3] = (packed[j] >> 6) & 3;
      }
      return nbytes;
    }
  }
}

void unpack_dequant(int bits, const std::uint8_t* packed, std::size_t n,
                    float scale, float zp, float* out) {
  const __m128 vs = _mm_set1_ps(scale);
  const __m128 vzp = _mm_set1_ps(zp);
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, 16, s);
    // cvtepu8_epi32 widens the low 4 bytes; shift the chunk across.
    __m128i chunk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
    for (int k = 0; k < 4; ++k) {
      const __m128 qf = _mm_cvtepi32_ps(_mm_cvtepu8_epi32(chunk));
      _mm_storeu_ps(out + i + 4 * k,
                    _mm_add_ps(_mm_mul_ps(qf, vs), vzp));
      chunk = _mm_srli_si128(chunk, 4);
    }
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    expand16(bits, packed, rem, s);
    for (std::size_t t = 0; t < rem; ++t)
      out[i + t] = static_cast<float>(s[t]) * scale + zp;
  }
}

void pack_bits_k(int bits, const std::uint32_t* values, std::size_t n,
                 std::uint8_t* out) {
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    for (int k = 0; k < 4; ++k)
      store_low_bytes(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          values + i + 4 * k)),
                      s + 4 * k);
    out += combine16(bits, s, 16, out);
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    std::memset(s, 0, sizeof(s));
    for (std::size_t t = 0; t < rem; ++t)
      s[t] = static_cast<std::uint8_t>(values[i + t]);
    combine16(bits, s, rem, out);
  }
}

void unpack_bits_k(int bits, const std::uint8_t* packed, std::size_t n,
                   std::uint32_t* out) {
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, 16, s);
    __m128i chunk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
    for (int k = 0; k < 4; ++k) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4 * k),
                       _mm_cvtepu8_epi32(chunk));
      chunk = _mm_srli_si128(chunk, 4);
    }
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    expand16(bits, packed, rem, s);
    for (std::size_t t = 0; t < rem; ++t) out[i + t] = s[t];
  }
}

void axpy(float a, const float* b, float* c, std::size_t n) {
  const __m128 va = _mm_set1_ps(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128 p0 = _mm_mul_ps(va, _mm_loadu_ps(b + j));
    const __m128 p1 = _mm_mul_ps(va, _mm_loadu_ps(b + j + 4));
    _mm_storeu_ps(c + j, _mm_add_ps(_mm_loadu_ps(c + j), p0));
    _mm_storeu_ps(c + j + 4, _mm_add_ps(_mm_loadu_ps(c + j + 4), p1));
  }
  for (; j + 4 <= n; j += 4)
    _mm_storeu_ps(c + j, _mm_add_ps(_mm_loadu_ps(c + j),
                                    _mm_mul_ps(va, _mm_loadu_ps(b + j))));
  for (; j < n; ++j) c[j] += a * b[j];
}

void scale_row(float a, const float* src, float* dst, std::size_t n) {
  const __m128 va = _mm_set1_ps(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm_storeu_ps(dst + j, _mm_mul_ps(va, _mm_loadu_ps(src + j)));
  for (; j < n; ++j) dst[j] = a * src[j];
}

void ef_fold(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm_storeu_ps(dst + j,
                  _mm_add_ps(_mm_loadu_ps(a + j), _mm_loadu_ps(b + j)));
  for (; j < n; ++j) dst[j] = a[j] + b[j];
}

void gather_axpy(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, std::size_t n) {
  for (std::size_t k = 0; k < count; ++k) {
    const float ck = coeffs[k];
    const float* src = base + static_cast<std::size_t>(idx[k]) * stride;
    const __m128 vc = _mm_set1_ps(ck);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4)
      _mm_storeu_ps(dst + j,
                    _mm_add_ps(_mm_loadu_ps(dst + j),
                               _mm_mul_ps(vc, _mm_loadu_ps(src + j))));
    for (; j < n; ++j) dst[j] += ck * src[j];
  }
}

const KernelTable kTable = {
    row_minmax, quantize_pack, unpack_dequant,
    pack_bits_k, unpack_bits_k, axpy,
    scale_row,  ef_fold,       gather_axpy,
};

}  // namespace

const KernelTable* sse42_kernels() { return &kTable; }

}  // namespace adaqp::simd

#else  // non-x86: variant not built

#include "simd/kernels.h"

namespace adaqp::simd {
const KernelTable* sse42_kernels() { return nullptr; }
}  // namespace adaqp::simd

#endif
