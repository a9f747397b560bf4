#ifndef GKS_COMMON_SIMD_KERNELS_H_
#define GKS_COMMON_SIMD_KERNELS_H_

namespace gks::simd {

/// The engine has one kernel implementation: plain scalar code at each
/// call site (posting-block decode, PackedIds::AppendRange, LzDecompress,
/// CountDepthPrefixes in core/probe_eval). This stub remains only because
/// the perfbench host stamp (perfbench/src/util.cc) prints
/// `Active().name`; delete it once that stamp drops its `simd=` field.
struct Kernels {
  const char* name;
};

inline const Kernels& Active() {
  static constexpr Kernels kScalar{"scalar"};
  return kScalar;
}

}  // namespace gks::simd

#endif  // GKS_COMMON_SIMD_KERNELS_H_
