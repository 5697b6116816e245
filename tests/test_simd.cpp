// The src/simd/ contract: ADAQP_ISA is a pure performance knob.
//  - Dispatch: strict ADAQP_ISA parsing (reject garbage, reject ISAs the
//    host can't run), override/guard mechanics, scalar always available.
//  - Codec byte-identity: encoded wire streams are byte-identical across
//    every host-supported ISA for ragged dims and all bit-width mixes, and
//    decode produces bit-identical floats.
//  - Round-trip property tests at every dispatched ISA; corrupt/truncated
//    streams still throw under the vector unpack path.
//  - GEMM kernels bit-identical across ISAs on ragged shapes; the backward
//    input-gradient product pinned to a serial dot product; assigner row
//    ranges bit-identical to an ordered min/max scan.
//  - Full training runs (all five methods) bit-identical across ISAs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "assign/bit_assigner.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "dist/dist_graph.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "quant/message_codec.h"
#include "quant/quantize.h"
#include "runtime/thread_pool.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "tensor/matrix.h"

namespace adaqp {
namespace {

using simd::Isa;
using simd::IsaGuard;

std::vector<Isa> vector_isas() {
  std::vector<Isa> out;
  for (Isa isa : simd::supported_isas())
    if (isa != Isa::kScalar) out.push_back(isa);
  return out;
}

// ---- Dispatch & strict parsing --------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
  const auto all = simd::supported_isas();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Isa::kScalar);
  EXPECT_TRUE(simd::isa_supported(simd::detected_isa()));
}

TEST(SimdDispatch, ParseAcceptsCanonicalNamesOnly) {
  EXPECT_EQ(simd::parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(simd::parse_isa("sse42"), Isa::kSse42);
  EXPECT_EQ(simd::parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(simd::parse_isa("avx512"), Isa::kAvx512);
  EXPECT_EQ(simd::parse_isa("neon"), Isa::kNeon);
  EXPECT_EQ(simd::parse_isa("native"), simd::detected_isa());
  for (const char* bad : {"", "AVX2", "avx-512", "sse4.2", "best", "1", "0"})
    EXPECT_THROW(simd::parse_isa(bad), std::runtime_error) << bad;
}

TEST(SimdDispatch, MalformedEnvValueRejected) {
  // active_isa() consults ADAQP_ISA only when no override is installed.
  ASSERT_EQ(setenv("ADAQP_ISA", "turbo9000", 1), 0);
  EXPECT_THROW(simd::active_isa(), std::runtime_error);
  ASSERT_EQ(setenv("ADAQP_ISA", "scalar", 1), 0);
  EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  ASSERT_EQ(unsetenv("ADAQP_ISA"), 0);
  EXPECT_EQ(simd::active_isa(), simd::detected_isa());
}

TEST(SimdDispatch, UnsupportedIsaRequestRejected) {
#if defined(__x86_64__) || defined(__i386__)
  const Isa foreign = Isa::kNeon;  // never executable on x86
#else
  const Isa foreign = Isa::kAvx2;
#endif
  ASSERT_FALSE(simd::isa_supported(foreign));
  EXPECT_THROW(simd::set_isa_override(foreign), std::runtime_error);
  ASSERT_EQ(setenv("ADAQP_ISA", isa_name(foreign), 1), 0);
  EXPECT_THROW(simd::active_isa(), std::runtime_error);
  ASSERT_EQ(unsetenv("ADAQP_ISA"), 0);
}

TEST(SimdDispatch, GuardInstallsAndRestores) {
  const Isa before = simd::active_isa();
  {
    IsaGuard guard(Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
    {
      IsaGuard inner(simd::detected_isa());
      EXPECT_EQ(simd::active_isa(), simd::detected_isa());
    }
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

// ---- Bit packing across ISAs ----------------------------------------------

TEST(SimdPack, PackUnpackMatchesScalarAtEverySizeAndWidth) {
  Rng rng(41);
  for (int bits : {2, 4, 8}) {
    for (std::size_t n : {0ul, 1ul, 3ul, 7ul, 15ul, 16ul, 17ul, 31ul, 33ul,
                          64ul, 100ul, 257ul}) {
      std::vector<std::uint32_t> values(n);
      for (auto& v : values)
        v = static_cast<std::uint32_t>(rng.uniform_int(1u << bits));
      std::vector<std::uint8_t> ref;
      std::vector<std::uint32_t> ref_unpacked;
      {
        IsaGuard guard(Isa::kScalar);
        ref = pack_bits(values, bits);
        ref_unpacked = unpack_bits(ref, bits, n);
      }
      ASSERT_EQ(ref_unpacked, values) << "scalar round trip b=" << bits;
      for (Isa isa : vector_isas()) {
        IsaGuard guard(isa);
        EXPECT_EQ(pack_bits(values, bits), ref)
            << isa_name(isa) << " pack b=" << bits << " n=" << n;
        EXPECT_EQ(unpack_bits(ref, bits, n), values)
            << isa_name(isa) << " unpack b=" << bits << " n=" << n;
      }
    }
  }
}

TEST(SimdPack, OutOfRangeValueStillThrowsOnVectorPath) {
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    const std::vector<std::uint32_t> bad = {1, 2, 4};  // 4 overflows 2 bits
    EXPECT_THROW(pack_bits(bad, 2), std::runtime_error) << isa_name(isa);
  }
}

// ---- Quantize / dequantize across ISAs ------------------------------------

TEST(SimdQuantize, PayloadAndMetadataByteIdenticalAcrossIsas) {
  for (int bits : {2, 4, 8}) {
    for (std::size_t n : {1ul, 5ul, 16ul, 23ul, 64ul, 129ul, 1000ul}) {
      Rng data_rng(7 * n + static_cast<std::size_t>(bits));
      std::vector<float> values(n);
      for (auto& v : values)
        v = static_cast<float>(data_rng.uniform(-3.0, 3.0));
      QuantizedVector ref;
      {
        IsaGuard guard(Isa::kScalar);
        Rng rng(1234);
        ref = quantize(values, bits, rng);
      }
      for (Isa isa : vector_isas()) {
        IsaGuard guard(isa);
        Rng rng(1234);  // same stream: draws are ISA-independent
        const QuantizedVector qv = quantize(values, bits, rng);
        // Bit-level equality, including the metadata that goes on the wire.
        EXPECT_EQ(qv.payload, ref.payload)
            << isa_name(isa) << " b=" << bits << " n=" << n;
        EXPECT_EQ(qv.zero_point, ref.zero_point) << isa_name(isa);
        EXPECT_EQ(qv.scale, ref.scale) << isa_name(isa);
      }
    }
  }
}

TEST(SimdQuantize, DequantizeBitIdenticalAcrossIsas) {
  Rng data_rng(99);
  std::vector<float> values(517);
  for (auto& v : values) v = static_cast<float>(data_rng.uniform(-1.0, 1.0));
  for (int bits : {2, 4, 8}) {
    Rng rng(55);
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> ref(values.size());
    {
      IsaGuard guard(Isa::kScalar);
      dequantize(qv, ref);
    }
    for (Isa isa : vector_isas()) {
      IsaGuard guard(isa);
      std::vector<float> out(values.size());
      dequantize(qv, out);
      EXPECT_EQ(out, ref) << isa_name(isa) << " b=" << bits;
    }
  }
}

TEST(SimdQuantize, RoundTripPropertyAtEveryIsa) {
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    Rng rng(17);
    for (int bits : {2, 4, 8}) {
      std::vector<float> values(201);
      for (auto& v : values) v = static_cast<float>(rng.uniform(-2.0, 2.0));
      const QuantizedVector qv = quantize(values, bits, rng);
      std::vector<float> out(values.size());
      dequantize(qv, out);
      // |x̂ - x| <= S: stochastic rounding moves at most one level.
      for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_LE(std::abs(out[i] - values[i]), qv.scale + 1e-6f)
            << isa_name(isa) << " b=" << bits << " i=" << i;
    }
    // Constant vectors quantize to scale 0 and decode exactly.
    const std::vector<float> flat(37, 1.5f);
    Rng flat_rng(3);
    const QuantizedVector qv = quantize(flat, 4, flat_rng);
    EXPECT_EQ(qv.scale, 0.0f);
    std::vector<float> out(flat.size());
    dequantize(qv, out);
    for (float v : out) EXPECT_EQ(v, 1.5f) << isa_name(isa);
  }
}

// ---- Codec across ISAs -----------------------------------------------------

/// Ragged shapes x bit mixes, encoded at each ISA with identical RNG state:
/// the wire stream must be byte-identical to the scalar encoding, and the
/// decode bit-identical.
TEST(SimdCodec, WireStreamByteIdenticalAcrossIsas) {
  for (std::size_t dim : {1ul, 7ul, 16ul, 33ul, 64ul, 111ul}) {
    Rng mrng(dim);
    Matrix src(9, dim);
    src.fill_uniform(mrng, -2.0f, 2.0f);
    const std::vector<NodeId> rows = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<int> bits = {2, 4, 8, 32, 2, 8, 4, 32, 2};
    EncodedBlock ref;
    Matrix ref_dst(9, dim);
    {
      IsaGuard guard(Isa::kScalar);
      Rng rng(2024);
      ref = encode_rows(src, rows, bits, rng);
      decode_rows(ref, ref_dst, rows);
    }
    EXPECT_EQ(ref.wire_bytes(), encoded_wire_bytes(rows.size(), dim, bits));
    for (Isa isa : vector_isas()) {
      IsaGuard guard(isa);
      Rng rng(2024);
      const EncodedBlock block = encode_rows(src, rows, bits, rng);
      EXPECT_EQ(block.bytes, ref.bytes) << isa_name(isa) << " dim=" << dim;
      Matrix dst(9, dim);
      decode_rows(block, dst, rows);
      EXPECT_EQ(max_abs_diff(dst, ref_dst), 0.0f)
          << isa_name(isa) << " dim=" << dim;
    }
  }
}

/// Corrupt / truncated streams must throw under the vector unpack path too
/// (the decode validation lives in front of the kernels).
TEST(SimdCodec, CorruptStreamsRejectedUnderVectorDecode) {
  for (Isa isa : vector_isas()) {
    IsaGuard guard(isa);
    Rng rng(8);
    Matrix src(6, 40);
    src.fill_uniform(rng, -1.0f, 1.0f);
    const std::vector<NodeId> rows = {0, 1, 2};
    const std::vector<int> bits = {2, 4, 8};
    const EncodedBlock good = encode_rows(src, rows, bits, rng);
    Matrix dst(6, 40);

    EncodedBlock bad_magic = good;
    bad_magic.bytes[0] ^= 0xFF;
    EXPECT_THROW(decode_rows(bad_magic, dst, rows), std::runtime_error);

    EncodedBlock truncated = good;
    truncated.bytes.resize(truncated.bytes.size() - 3);
    EXPECT_THROW(decode_rows(truncated, dst, rows), std::runtime_error);

    EncodedBlock trailing = good;
    trailing.bytes.push_back(0xCD);
    EXPECT_THROW(decode_rows(trailing, dst, rows), std::runtime_error);

    EncodedBlock bad_tag = good;
    bad_tag.bytes[12] = 3;  // not a valid bit-width
    EXPECT_THROW(decode_rows(bad_tag, dst, rows), std::runtime_error);
  }
}

// ---- GEMM across ISAs ------------------------------------------------------

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  m.fill_uniform(rng, -1.0f, 1.0f);
  return m;
}

TEST(SimdGemm, AllVariantsBitIdenticalAcrossIsas) {
  Rng rng(5);
  // Ragged shapes straddle every vector width and tail case.
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {32, 64, 16}, {50, 23, 130}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix at = random_matrix(s.k, s.m, rng);
    std::vector<std::uint32_t> subset;
    for (std::size_t i = 0; i < s.m; i += 2)
      subset.push_back(static_cast<std::uint32_t>(i));

    Matrix ref_nn, ref_tn, ref_rows(s.m, s.n);
    {
      IsaGuard guard(Isa::kScalar);
      gemm(a, b, ref_nn);
      gemm_tn(at, b, ref_tn);
      gemm_rows(a, b, ref_rows, subset);
    }
    for (Isa isa : vector_isas()) {
      IsaGuard guard(isa);
      Matrix c_nn, c_tn, c_rows(s.m, s.n);
      gemm(a, b, c_nn);
      gemm_tn(at, b, c_tn);
      gemm_rows(a, b, c_rows, subset);
      EXPECT_EQ(max_abs_diff(c_nn, ref_nn), 0.0f)
          << isa_name(isa) << " nn " << s.m << "x" << s.k << "x" << s.n;
      EXPECT_EQ(max_abs_diff(c_tn, ref_tn), 0.0f) << isa_name(isa) << " tn";
      EXPECT_EQ(max_abs_diff(c_rows, ref_rows), 0.0f)
          << isa_name(isa) << " rows";
    }
  }
}

TEST(SimdGemm, AxpyKernelHandlesRaggedTails) {
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    const auto axpy = simd::kernels().axpy;
    for (std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 15ul,
                          16ul, 17ul, 31ul, 100ul}) {
      Rng rng(n + 1);
      std::vector<float> b(n), c(n), ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        ref[i] = c[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      const float a = 0.37f;
      if (n > 0) axpy(a, b.data(), c.data(), n);
      for (std::size_t i = 0; i < n; ++i) ref[i] += a * b[i];
      EXPECT_EQ(c, ref) << isa_name(isa) << " n=" << n;
    }
  }
}

/// The backward input-gradient product dX = dY * W^T, as the layers form it
/// (transpose_into, then gemm or gemm_rows), is the serial k-ascending dot
/// product acc += dy[i][p] * w[j][p] from +0, bit for bit — gradients with
/// exact +0 / -0 entries and whole zero rows included, on every ISA and at
/// 1 and 8 threads. Shapes straddle the 8-row band, the 128-deep k tile and
/// the 512-wide column tile.
TEST(SimdGemm, InputGradientProductIsTheSerialDotProductBitForBit) {
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1}, {7, 13, 3}, {33, 130, 515}, {130, 257, 9}, {17, 64, 40}};
  for (const auto& s : shapes) {
    Rng rng(s.m * 1000 + s.k * 10 + s.n);
    Matrix dy = random_matrix(s.m, s.k, rng);
    const Matrix w = random_matrix(s.n, s.k, rng);  // in_dim x out_dim
    for (std::size_t i = 0; i < dy.size(); i += 3)
      dy.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
    for (std::size_t p = 0; p < s.k; ++p)
      dy.at(s.m / 2, p) = p % 2 == 0 ? -0.0f : 0.0f;  // an all-zero row
    std::vector<std::uint32_t> subset;
    for (std::size_t i = 0; i < s.m; i += 2)
      subset.push_back(static_cast<std::uint32_t>(i));

    std::vector<std::uint32_t> ref(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < s.k; ++p) acc += dy.at(i, p) * w.at(j, p);
        ref[i * s.n + j] = std::bit_cast<std::uint32_t>(acc);
      }

    for (Isa isa : simd::supported_isas()) {
      IsaGuard isa_guard(isa);
      for (int threads : {1, 8}) {
        const int prev = num_threads();
        set_num_threads(threads);
        Matrix wt, full, rows(s.m, s.n);
        rows.fill(7.0f);
        transpose_into(w, wt);
        gemm(dy, wt, full);
        gemm_rows(dy, wt, rows, subset);
        set_num_threads(prev);
        for (std::size_t i = 0; i < s.m; ++i)
          for (std::size_t j = 0; j < s.n; ++j) {
            const std::uint32_t want = ref[i * s.n + j];
            ASSERT_EQ(std::bit_cast<std::uint32_t>(full.at(i, j)), want)
                << isa_name(isa) << " threads=" << threads << " " << s.m
                << "x" << s.k << "x" << s.n << " at (" << i << ", " << j
                << ")";
            // gemm_rows writes the subset's rows only.
            const std::uint32_t got = std::bit_cast<std::uint32_t>(rows.at(i, j));
            if (i % 2 == 0)
              ASSERT_EQ(got, want) << isa_name(isa) << " rows (" << i << ")";
            else
              ASSERT_EQ(rows.at(i, j), 7.0f);
          }
      }
    }
  }
}

// ---- Row ranges -------------------------------------------------------------

/// row_ranges_of_into runs the dispatched row_minmax kernel; its ranges are
/// bit-identical to the ordered std::min / std::max scan on every ISA,
/// including rows that mix +0 and -0, rows of equal values and ragged
/// widths around every vector width.
TEST(SimdRowRanges, BitIdenticalToOrderedMinMaxOnEveryIsa) {
  for (std::size_t cols : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 15ul, 16ul,
                           17ul, 31ul, 32ul, 33ul, 65ul}) {
    Rng rng(cols + 7);
    Matrix m(8, cols);
    m.fill_uniform(rng, -1.0f, 1.0f);
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(0, c) = c % 2 == 0 ? 0.0f : -0.0f;        // signed zeros only
      m.at(1, c) = c % 2 == 0 ? -0.0f : 0.0f;
      m.at(2, c) = 0.25f;                            // equal values
      m.at(3, c) = c % 3 == 0 ? -0.0f : 0.5f;        // -0 is the minimum
      m.at(4, c) = c % 3 == 1 ? 0.0f : -0.5f;        // +0 is the maximum
      if (c % 4 == 2) m.at(5, c) = c % 8 == 2 ? 0.0f : -0.0f;
    }
    std::vector<std::uint32_t> ref;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const auto row = m.row(r);
      float lo = row[0], hi = row[0];
      for (float v : row) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      ref.push_back(std::bit_cast<std::uint32_t>(hi - lo));
    }
    for (Isa isa : simd::supported_isas()) {
      IsaGuard guard(isa);
      std::vector<float> ranges;
      row_ranges_of_into(m, ranges);
      ASSERT_EQ(ranges.size(), m.rows());
      for (std::size_t r = 0; r < m.rows(); ++r)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ranges[r]), ref[r])
            << isa_name(isa) << " cols=" << cols << " row " << r;
    }
  }
}

// ---- Aggregation & fold kernels ------------------------------------------

/// The new kernel-matrix entries (scale_row, ef_fold, gather_axpy) must be
/// bit-identical to the scalar reference on every host-supported ISA at
/// ragged sizes straddling all vector widths.
TEST(SimdAggregate, NewKernelsBitIdenticalAcrossIsasOnRaggedTails) {
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33,
                               63, 64, 65, 100, 130};
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    const auto& kt = simd::kernels();
    for (std::size_t n : sizes) {
      Rng rng(n + 99);
      std::vector<float> a(n), b(n), dst(n), ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
        b[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      const float s = 0.731f;
      if (n > 0) {
        kt.scale_row(s, a.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = s * a[i];
        EXPECT_EQ(dst, ref) << isa_name(isa) << " scale_row n=" << n;

        kt.ef_fold(a.data(), b.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
        EXPECT_EQ(dst, ref) << isa_name(isa) << " ef_fold n=" << n;

        // In-place fold (dst aliases a), the owner-accumulate form.
        std::vector<float> inplace = a;
        kt.ef_fold(inplace.data(), b.data(), inplace.data(), n);
        EXPECT_EQ(inplace, ref) << isa_name(isa) << " ef_fold alias n=" << n;
      }
    }
  }
}

TEST(SimdAggregate, GatherAxpyMatchesScalarKLoopAtEveryIsa) {
  // A small row pool gathered in a fixed k-ascending order: every dst
  // element must see the identical unfused multiply-add chain on every ISA.
  const std::size_t kRows = 13, kStride = 37;
  Rng rng(7);
  std::vector<float> base(kRows * kStride);
  for (float& v : base) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (std::size_t n : {1ul, 3ul, 8ul, 16ul, 17ul, 37ul}) {
    for (std::size_t count : {0ul, 1ul, 2ul, 5ul, 13ul}) {
      std::vector<std::uint32_t> idx(count);
      std::vector<float> coeffs(count);
      for (std::size_t k = 0; k < count; ++k) {
        idx[k] = static_cast<std::uint32_t>((k * 5 + 3) % kRows);
        coeffs[k] = static_cast<float>(rng.uniform(0.1, 1.5));
      }
      std::vector<float> ref(n, 0.25f);
      {
        IsaGuard guard(Isa::kScalar);
        simd::kernels().gather_axpy(base.data(), kStride, idx.data(),
                                    coeffs.data(), count, ref.data(), n);
      }
      for (Isa isa : vector_isas()) {
        IsaGuard guard(isa);
        std::vector<float> dst(n, 0.25f);
        simd::kernels().gather_axpy(base.data(), kStride, idx.data(),
                                    coeffs.data(), count, dst.data(), n);
        EXPECT_EQ(dst, ref)
            << isa_name(isa) << " n=" << n << " count=" << count;
      }
    }
  }
}

// ---- Full training runs across ISAs ---------------------------------------

/// Scoped global-pool override; restores the previous size on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

class SimdTrainerEquality : public ::testing::TestWithParam<Method> {};

TEST_P(SimdTrainerEquality, FullRunBitIdenticalAcrossIsasAndThreads) {
  const Method method = GetParam();
  DatasetSpec spec;
  spec.name = "simd_tiny";
  spec.num_nodes = 220;
  spec.avg_degree = 7.0;
  spec.feature_dim = 11;
  spec.num_classes = 4;
  spec.intra_prob = 0.8;
  Rng rng(271);
  const Dataset ds = make_dataset(spec, rng);
  Rng part_rng(31);
  const auto part =
      make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  auto run = [&](Isa isa, int threads) {
    IsaGuard isa_guard(isa);
    ThreadCountGuard thread_guard(threads);
    const ClusterSpec cluster = ClusterSpec::machines(2, 2);
    ModelConfig mc;
    mc.aggregator = Aggregator::kGcn;
    mc.in_dim = ds.spec.feature_dim;
    mc.hidden_dim = 12;
    mc.out_dim = ds.spec.num_classes;
    mc.num_layers = 2;
    mc.dropout = 0.4f;
    TrainOptions opts;
    opts.method = method;
    opts.epochs = 4;
    opts.seed = 7;
    opts.reassign_period = 2;
    opts.eval_every_epoch = true;
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    return trainer.run();
  };

  const RunResult ref = run(Isa::kScalar, 1);
  ASSERT_EQ(ref.epochs.size(), 4u);
  std::vector<std::pair<Isa, int>> configs;
  for (Isa isa : vector_isas()) configs.emplace_back(isa, 1);
  configs.emplace_back(simd::detected_isa(), 4);  // ISA x threads cross-check
  for (const auto& [isa, threads] : configs) {
    const RunResult got = run(isa, threads);
    ASSERT_EQ(got.epochs.size(), ref.epochs.size());
    for (std::size_t e = 0; e < ref.epochs.size(); ++e) {
      EXPECT_EQ(got.epochs[e].train_loss, ref.epochs[e].train_loss)
          << isa_name(isa) << " t=" << threads << " epoch " << e;
      EXPECT_EQ(got.epochs[e].val_acc, ref.epochs[e].val_acc)
          << isa_name(isa) << " t=" << threads << " epoch " << e;
    }
    EXPECT_EQ(got.total_comm_bytes, ref.total_comm_bytes)
        << isa_name(isa) << " t=" << threads;
    EXPECT_EQ(got.final_test_acc, ref.final_test_acc)
        << isa_name(isa) << " t=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SimdTrainerEquality,
                         ::testing::Values(Method::kVanilla, Method::kAdaQP,
                                           Method::kAdaQPUniform,
                                           Method::kPipeGCN,
                                           Method::kSancus));

}  // namespace
}  // namespace adaqp
