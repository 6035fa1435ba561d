// Semiring traits for the dense kernel layer.
//
// A semiring supplies the (⊕, ⊗, 0̄, 1̄) algebra the kernels are generic
// over. The same blocked gemv/gemm code instantiates to
//
//   MaxPlus    — Viterbi scoring (⊕ = max, ⊗ = +). max is associative,
//                commutative and *reordering-free* in IEEE double (no
//                rounding), so blocked/vectorized evaluation is
//                bit-identical to the scalar reference.
//   Real       — plain (+, ×) on linear-domain doubles. Reassociation
//                changes the last ulps; kernels document a tolerance
//                instead of bit-equality (see kernels.h).
//   BoolOr     — reachability (⊕ = |, ⊗ = &) on uint8. Exact.
//
// Zero() must be the ⊕-identity and ⊗-annihilator; One() the ⊗-identity.
// All operations are static so instantiated kernels inline them.

#ifndef TMS_KERNELS_SEMIRING_H_
#define TMS_KERNELS_SEMIRING_H_

#include <cstdint>
#include <limits>

namespace tms::kernels {

struct MaxPlus {
  using Value = double;
  static constexpr const char* kName = "maxplus";
  // Reordering ⊕ never changes the result bit pattern.
  static constexpr bool kExactReorder = true;
  static constexpr Value Zero() {
    return -std::numeric_limits<double>::infinity();
  }
  static constexpr Value One() { return 0.0; }
  static Value Plus(Value a, Value b) { return a > b ? a : b; }
  static Value Times(Value a, Value b) { return a + b; }
};

struct Real {
  using Value = double;
  static constexpr const char* kName = "real";
  static constexpr bool kExactReorder = false;
  static constexpr Value Zero() { return 0.0; }
  static constexpr Value One() { return 1.0; }
  static Value Plus(Value a, Value b) { return a + b; }
  static Value Times(Value a, Value b) { return a * b; }
};

struct BoolOr {
  using Value = std::uint8_t;
  static constexpr const char* kName = "boolor";
  static constexpr bool kExactReorder = true;
  static constexpr Value Zero() { return 0; }
  static constexpr Value One() { return 1; }
  static Value Plus(Value a, Value b) {
    return static_cast<Value>(a | b);
  }
  static Value Times(Value a, Value b) {
    return static_cast<Value>(a & b);
  }
};

}  // namespace tms::kernels

#endif  // TMS_KERNELS_SEMIRING_H_
