//===- sim/RtValue.cpp - Runtime simulation values --------------------------===//

#include "sim/RtValue.h"

using namespace llhd;

bool RtValue::isTruthy() const {
  if (isInt())
    return !IV.isZero();
  if (isLogic())
    return LV.toIntValue().zextToU64() != 0;
  assert(false && "truthiness of a non-scalar value");
  return false;
}

bool RtValue::operator==(const RtValue &RHS) const {
  if (K != RHS.K)
    return false;
  switch (K) {
  case Kind::Invalid:
    return true;
  case Kind::Int:
    return IV == RHS.IV;
  case Kind::Logic:
    return LV == RHS.LV;
  case Kind::TimeVal:
    return TV == RHS.TV;
  case Kind::Pointer:
    return Ptr == RHS.Ptr;
  case Kind::Signal:
    if (SigBoxed || RHS.SigBoxed)
      return sigRef() == RHS.sigRef();
    return SRI.Sig == RHS.SRI.Sig && SRI.BitOff == RHS.SRI.BitOff &&
           SRI.BitLen == RHS.SRI.BitLen;
  case Kind::Array:
  case Kind::Struct:
    return *Agg == *RHS.Agg;
  }
  return false;
}

std::string RtValue::toString() const {
  std::string S;
  format([&S](const char *P, size_t N) { S.append(P, N); });
  return S;
}
