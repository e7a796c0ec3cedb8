//===- sim/Kernel.cpp - Simulation kernel -------------------------------------===//

#include "sim/Kernel.h"
#include "sim/RtOps.h"

#include <algorithm>
#include <sstream>

using namespace llhd;

//===----------------------------------------------------------------------===//
// SignalTable
//===----------------------------------------------------------------------===//

SignalId SignalTable::create(Type *Ty, RtValue Init, std::string Name) {
  Layout &B = bld();
  B.Ty.push_back(Ty);
  B.Name.push_back(std::move(Name));
  B.Parents.push_back(static_cast<SignalId>(B.Ty.size() - 1));
  B.Aliases.emplace_back();
  Values.push_back(std::move(Init));
  Drivers.emplace_back();
  return static_cast<SignalId>(B.Ty.size() - 1);
}

void SignalTable::connect(SignalId A, SignalId B) {
  A = canonical(A);
  B = canonical(B);
  if (A == B)
    return;
  // The lower id wins as the root; its current value is kept.
  if (B < A)
    std::swap(A, B);
  bld().Parents[B] = A;
}

void SignalTable::freeze() {
  if (frozen())
    return;
  Layout &B = bld();
  // Full path compression: every parent chain collapses to one hop, so
  // post-freeze ufRoot() is a pure read (shareable across threads).
  for (SignalId S = 0; S != B.Parents.size(); ++S) {
    SignalId Root = S;
    while (B.Parents[Root] != Root)
      Root = B.Parents[Root];
    B.Parents[S] = Root;
  }
  B.Init = Values;
  // Precompute the canonical map last: canonical() takes the slow path
  // while Canon is empty, i.e. while we fill it.
  std::vector<SignalId> Canon(B.Parents.size());
  B.Store.resize(B.Parents.size());
  for (SignalId S = 0; S != B.Parents.size(); ++S) {
    Canon[S] = canonical(S);
    SignalId Root = B.Parents[S];
    B.Store[S] = B.Aliases[Root].valid() ? InvalidSignal : Root;
  }
  B.Canon = std::move(Canon);
  B.Frozen = true;
}

SignalTable SignalTable::makeRun() const {
  assert(frozen() && "makeRun() requires a frozen layout");
  SignalTable Run;
  Run.L = L;
  Run.Values = L->Init;
  Run.Drivers.resize(L->Init.size());
  return Run;
}

SigRef SignalTable::resolve(const SigRef &Ref) const {
  SigRef R = Ref;
  R.Sig = ufRoot(R.Sig);
  while (L->Aliases[R.Sig].valid()) {
    // Compose: the alias target is the prefix, then this reference's
    // own narrowing on top of it. Targets are element-aligned by
    // construction (connectRefs), so element()/elements() compose.
    SigRef N = L->Aliases[R.Sig];
    N.Sig = ufRoot(N.Sig);
    for (uint32_t Idx : R.Path)
      N = N.element(Idx);
    if (R.ElemOff >= 0)
      N = N.elements(R.ElemOff, R.ElemLen);
    if (R.BitOff >= 0)
      N = N.bits(R.BitOff, R.BitLen);
    R = std::move(N);
    R.Sig = ufRoot(R.Sig);
  }
  return R;
}

bool SignalTable::connectRefs(const SigRef &ARaw, const SigRef &BRaw) {
  SigRef A = resolve(ARaw), B = resolve(BRaw);
  if (A.wholeSignal() && B.wholeSignal()) {
    connect(A.Sig, B.Sig);
    return true;
  }
  // One side must be a whole signal, the other an element-aligned
  // sub-signal; the whole side becomes an alias view of the sub-ref.
  const SigRef *Sub = nullptr;
  SignalId Whole = InvalidSignal;
  if (A.wholeSignal() && B.BitOff < 0) {
    Whole = A.Sig;
    Sub = &B;
  } else if (B.wholeSignal() && A.BitOff < 0) {
    Whole = B.Sig;
    Sub = &A;
  } else {
    return false;
  }
  if (Sub->Sig == Whole)
    return false; // Self-alias would cycle.
  bld().Aliases[Whole] = *Sub;
  return true;
}

RtValue SignalTable::read(const SigRef &Ref) const {
  // Fast path: no alias on the root — the overwhelmingly common case,
  // and allocation-free for scalar signals.
  SignalId Root = ufRoot(Ref.Sig);
  if (!L->Aliases[Root].valid())
    return readSubValue(Values[Root], Ref);
  SigRef R = resolve(Ref);
  return readSubValue(Values[R.Sig], R);
}

bool SignalTable::write(const SigRef &RefIn, const RtValue &V,
                        uint64_t Driver) {
  SigRef Resolved;
  const SigRef *RefP = &RefIn;
  SignalId Root = ufRoot(RefIn.Sig);
  if (L->Aliases[Root].valid()) {
    Resolved = resolve(RefIn);
    RefP = &Resolved;
    Root = Resolved.Sig;
  }
  const SigRef &Ref = *RefP;
  RtValue &SV = Values[Root];
  Type *Ty = L->Ty[Root];

  // Multi-driver resolution for whole-signal logic drives: each driver
  // keeps its contribution in a slot found by binary search; the signal
  // value is the IEEE 1164 resolution over all of them (commutative, so
  // slot order does not affect the result).
  if (Ty && Ty->isLogic() && Ref.wholeSignal()) {
    std::vector<std::pair<uint64_t, RtValue>> &Slots = Drivers[Root];
    auto It = std::lower_bound(
        Slots.begin(), Slots.end(), Driver,
        [](const auto &P, uint64_t D) { return P.first < D; });
    if (It == Slots.end() || It->first != Driver)
      It = Slots.insert(It, {Driver, V});
    else
      It->second = V;
    RtValue R = Slots.front().second;
    for (unsigned I = 1; I < Slots.size(); ++I)
      R = RtValue(R.logicValue().resolve(Slots[I].second.logicValue()));
    if (R == SV)
      return false;
    SV = std::move(R);
    return true;
  }

  // Two-state and sub-signal drives: last write wins.
  if (Ref.wholeSignal()) {
    if (SV == V)
      return false;
    SV = V;
    return true;
  }
  RtValue Old = readSubValue(SV, Ref);
  if (Old == V)
    return false;
  writeSubValue(SV, Ref, V);
  return true;
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

uint32_t Scheduler::allocSlot() {
  if (!FreeSlots.empty()) {
    uint32_t Idx = FreeSlots.back();
    FreeSlots.pop_back();
    return Idx;
  }
  Arena.emplace_back();
  return Arena.size() - 1;
}

void Scheduler::take(uint32_t Idx, SlotEvents &Out) {
  // Out's cleared vectors keep their capacity and go to the freed slot,
  // so once capacities settle, scheduling and popping never allocate.
  Out.clear();
  std::swap(Out, Arena[Idx]);
  FreeSlots.push_back(Idx);
  for (Ref &M : Memo)
    if (M.Idx == Idx)
      M.Idx = NoSlot;
}

SlotEvents &Scheduler::slotFor(Time T) {
  if (T.Fs <= HeadFs) {
    // Fast lane: linear scan from the earliest (back) entry — the lane
    // holds the current instant's few pending delta/epsilon slots.
    size_t I = Fast.size();
    while (I != 0 && Fast[I - 1].T < T)
      --I;
    if (I != 0 && Fast[I - 1].T == T)
      return Arena[Fast[I - 1].Idx];
    uint32_t Idx = allocSlot();
    Fast.insert(Fast.begin() + I, {T, Idx});
    return Arena[Idx];
  }
  // Heap lane: merge into the existing slot for T if there is one, so
  // equal-time events stay in scheduling order.
  for (const Ref &R : Heap)
    if (R.T == T)
      return Arena[R.Idx];
  uint32_t Idx = allocSlot();
  Heap.push_back({T, Idx});
  std::push_heap(Heap.begin(), Heap.end(), HeapOrder());
  return Arena[Idx];
}

void Scheduler::pop(SlotEvents &Out) {
  // The lanes are disjoint (fast: Fs <= HeadFs, heap: Fs > HeadFs), so
  // a nonempty fast lane always holds the earliest slot.
  if (!Fast.empty()) {
    uint32_t Idx = Fast.back().Idx;
    Fast.pop_back();
    take(Idx, Out);
    return;
  }
  Time T = Heap.front().T;
  std::pop_heap(Heap.begin(), Heap.end(), HeapOrder());
  uint32_t Idx = Heap.back().Idx;
  Heap.pop_back();
  take(Idx, Out);
  // A new physical instant begins: anchor the fast lane to it and pull
  // over any already-scheduled slots of the same instant (they are at
  // the top of the heap, and arrive in ascending time order; the lane
  // is empty here, so reversing them yields its descending order).
  HeadFs = T.Fs;
  while (!Heap.empty() && Heap.front().T.Fs == HeadFs) {
    Ref R = Heap.front();
    std::pop_heap(Heap.begin(), Heap.end(), HeapOrder());
    Heap.pop_back();
    Fast.push_back(R);
  }
  std::reverse(Fast.begin(), Fast.end());
}

std::vector<Scheduler::PendingSlot> Scheduler::pendingSlots() const {
  std::vector<PendingSlot> Out;
  Out.reserve(Fast.size() + Heap.size());
  auto expand = [&](const Ref &R) {
    const SlotEvents &S = Arena[R.Idx];
    PendingSlot P{R.T, {}, S.Wakes};
    P.Updates.reserve(S.Recs.size());
    for (const UpdateRec &U : S.Recs) {
      if (!U.isWord()) {
        P.Updates.push_back(S.General[U.Word]);
        continue;
      }
      SigRef Whole;
      Whole.Sig = U.Sig;
      P.Updates.push_back(
          {std::move(Whole), RtValue(IntValue(U.Width, U.Word)), U.Driver});
    }
    Out.push_back(std::move(P));
  };
  // The fast lane is already sorted (descending) and strictly precedes
  // every heap slot; the heap's array order is not sorted, so sort the
  // copies.
  for (auto It = Fast.rbegin(); It != Fast.rend(); ++It)
    expand(*It);
  size_t HeapBegin = Out.size();
  for (const Ref &R : Heap)
    expand(R);
  std::sort(Out.begin() + HeapBegin, Out.end(),
            [](const PendingSlot &A, const PendingSlot &B) {
              return A.T < B.T;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

std::string Trace::dump(const SignalTable &Signals) const {
  std::ostringstream OS;
  for (const Change &C : Changes)
    OS << C.T.toString() << " " << Signals.name(C.Sig) << " = "
       << C.Val << "\n";
  return OS.str();
}
