// Declared role of a pipeline stage (docs/OBSERVABILITY.md, "Critical-path
// profiler").
//
// Every StageGraph stage carries one StageClass, given by whoever adds the
// stage (pipeline/async_exchange.cpp for exchange stages, core/trainer.cpp
// for compute stages). The profiler attributes stage time by it, and the
// realized-overlap measurement picks its two stage sets from it: exchange =
// fused forward/backward exchange stages plus the owner-side accumulate
// (kCatDecode); compute = central stages plus the fold. Stage names are
// labels only (trace, race checker, critical-path list) and are never
// parsed.
#pragma once

namespace adaqp::obs {

/// Semantic attribution buckets for stage time. kCatOther absorbs stages
/// with no wire/compute meaning (range traces, halo zeroing); the epoch
/// rollup additionally reports optimizer / scheduling / serial components
/// that are not stage categories (EpochProfile).
enum ProfileCategory : int {
  kCatCentral = 0,   ///< central-row compute (hides under the wire)
  kCatMarginal,      ///< marginal-row compute (on the critical path by design)
  kCatEncode,        ///< quantize + pack
  kCatWire,          ///< modeled transfer share of exchange stages
  kCatDecode,        ///< unpack + dequantize (+ owner-side accumulate)
  kCatFold,          ///< shared parameter-gradient fold
  kCatOther,         ///< range traces, halo zeroing, undeclared stages
  kNumProfileCategories
};

/// What one stage is. Fused exchange stages land in kCatWire and have their
/// span split across encode/wire/decode by the cost model (profile.h).
struct StageClass {
  int category = kCatOther;  ///< primary bucket (exchange stages: see split)
  bool fused_forward = false;   ///< forward pair stage: encode+wire+decode
  bool fused_backward = false;  ///< backward pair encode: encode+wire
  int src = -1;  ///< sender device for pair stages, else -1
  int dst = -1;  ///< receiver device for pair and owner stages, else -1
};

}  // namespace adaqp::obs
