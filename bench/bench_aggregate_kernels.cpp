// Microbenchmarks of the aggregation / fold kernel-matrix entries
// (google-benchmark): scale_row (aggregation self-term), gather_axpy (the
// CSR-band neighbor gather behind aggregate_forward and its adjoint), and
// ef_fold, the elementwise add the backward owner-accumulate stage folds
// each decoded halo-gradient row with. Swept over every SIMD ISA the host supports, selected
// per benchmark with an IsaGuard exactly as ADAQP_ISA would. Tracks the
// kernel-matrix speedup target: >= 2x scalar throughput on AVX2-capable
// hardware (recorded into BENCH_runtime.json by scripts/bench.sh).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simd/isa.h"
#include "simd/kernels.h"

namespace {

using namespace adaqp;
using simd::Isa;
using simd::IsaGuard;

std::vector<float> make_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

void BM_ScaleRow(benchmark::State& state, Isa isa, std::size_t n) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().scale_row;
  const auto src = make_values(n, 21);
  std::vector<float> dst(n);
  for (auto _ : state) {
    kernel(0.731f, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float));
}

void BM_EfFold(benchmark::State& state, Isa isa, std::size_t n) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().ef_fold;
  const auto a = make_values(n, 22);
  const auto b = make_values(n, 23);
  std::vector<float> dst(n);
  for (auto _ : state) {
    kernel(a.data(), b.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float));
}

void BM_GatherAxpy(benchmark::State& state, Isa isa, std::size_t degree,
                   std::size_t dim) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().gather_axpy;
  // A realistic aggregation band: `degree` neighbor rows gathered from a
  // feature pool into one output row of `dim` channels.
  const std::size_t pool = 512;
  const auto base = make_values(pool * dim, 26);
  Rng rng(27);
  std::vector<std::uint32_t> idx(degree);
  std::vector<float> coeffs(degree);
  for (std::size_t k = 0; k < degree; ++k) {
    idx[k] = static_cast<std::uint32_t>(rng.uniform_int(pool));
    coeffs[k] = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  std::vector<float> dst(dim, 0.0f);
  for (auto _ : state) {
    kernel(base.data(), dim, idx.data(), coeffs.data(), degree, dst.data(),
           dim);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          degree * dim * sizeof(float));
}

}  // namespace

// Registered (not macro-declared) so every case can sweep the host's
// supported ISA list discovered at runtime. Benchmark names carry the ISA
// so `--benchmark_filter=avx2` or `=scalar` isolates one variant.
int main(int argc, char** argv) {
  for (Isa isa : adaqp::simd::supported_isas()) {
    const std::string tag = adaqp::simd::isa_name(isa);
    for (std::size_t n : {64ul, 1024ul, 16384ul}) {
      const std::string sz = "/n" + std::to_string(n);
      benchmark::RegisterBenchmark(("BM_ScaleRow/" + tag + sz).c_str(),
                                   BM_ScaleRow, isa, n);
      benchmark::RegisterBenchmark(("BM_EfFold/" + tag + sz).c_str(),
                                   BM_EfFold, isa, n);
    }
    for (std::size_t degree : {8ul, 32ul})
      for (std::size_t dim : {64ul, 256ul})
        benchmark::RegisterBenchmark(
            ("BM_GatherAxpy/" + tag + "/deg" + std::to_string(degree) +
             "/dim" + std::to_string(dim))
                .c_str(),
            BM_GatherAxpy, isa, degree, dim);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
