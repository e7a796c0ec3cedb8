//===- tests/sim/SchedulerTest.cpp - Event wheel unit tests ---------------===//
//
// The two-lane event wheel in isolation: (time, delta, epsilon) pop
// ordering, the driveTarget zero-time rule, equal-time slot merging,
// heap-lane ordering under interleaved past/future schedules — and the
// stale-timer generation guard observed through a real simulation.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "sim/Interp.h"

#include <gtest/gtest.h>

using namespace llhd;

namespace {

SigUpdate update(uint64_t Driver) {
  SigUpdate U;
  U.Ref.Sig = 0;
  U.Val = RtValue(IntValue(8, Driver));
  U.Driver = Driver;
  return U;
}

/// Driver id of the popped slot's \p I-th update, whichever record kind.
uint64_t driverOf(const SlotEvents &E, size_t I) {
  const UpdateRec &R = E.Recs[I];
  return R.isWord() ? R.Driver : E.General[R.Word].Driver;
}

/// Drains the wheel, returning the popped times in order.
std::vector<Time> drain(Scheduler &S) {
  std::vector<Time> Order;
  SlotEvents Ev;
  while (!S.empty()) {
    Order.push_back(S.nextTime());
    S.pop(Ev);
  }
  return Order;
}

TEST(SchedulerTest, DeltaVersusEpsilonOrdering) {
  // Within one physical instant, epsilon steps order before the next
  // delta, and deltas order among themselves.
  Scheduler S;
  S.scheduleUpdate(Time(0, 2, 0), update(1));
  S.scheduleUpdate(Time(0, 1, 0), update(2));
  S.scheduleUpdate(Time(0, 0, 1), update(3));
  S.scheduleUpdate(Time(0, 1, 1), update(4));

  std::vector<Time> Order = drain(S);
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], Time(0, 0, 1));
  EXPECT_EQ(Order[1], Time(0, 1, 0));
  EXPECT_EQ(Order[2], Time(0, 1, 1));
  EXPECT_EQ(Order[3], Time(0, 2, 0));
}

TEST(SchedulerTest, DriveTargetZeroTimeLandsOnNextDelta) {
  Time Now(Time::ns(5).Fs, 3, 2);
  // A zero span becomes the next delta (epsilon resets).
  EXPECT_EQ(driveTarget(Now, Time()), Time(Time::ns(5).Fs, 4, 0));
  // A physical span starts a fresh instant at delta 0.
  EXPECT_EQ(driveTarget(Now, Time::ns(1)), Time(Time::ns(6).Fs, 0, 0));
  // An epsilon span stays within the current delta.
  EXPECT_EQ(driveTarget(Now, Time::eps()), Time(Time::ns(5).Fs, 3, 3));
}

TEST(SchedulerTest, EqualTimeEventsMergeInScheduleOrder) {
  // Events at the same time land in one slot and pop in scheduling
  // order — in the fast lane and in the heap lane alike. Engines rely
  // on this for last-write-wins determinism.
  Scheduler S;
  Time Current(0, 1, 0);        // Fast lane (current instant).
  Time Future = Time::ns(7);    // Heap lane.
  for (uint64_t I = 0; I != 4; ++I) {
    S.scheduleUpdate(Current, update(I));
    S.scheduleUpdate(Future, update(100 + I));
  }

  SlotEvents Ev;
  ASSERT_EQ(S.nextTime(), Current);
  S.pop(Ev);
  ASSERT_EQ(Ev.Recs.size(), 4u);
  for (uint64_t I = 0; I != 4; ++I)
    EXPECT_EQ(driverOf(Ev, I), I);

  ASSERT_EQ(S.nextTime(), Future);
  S.pop(Ev);
  ASSERT_EQ(Ev.Recs.size(), 4u);
  for (uint64_t I = 0; I != 4; ++I)
    EXPECT_EQ(driverOf(Ev, I), 100 + I);
  EXPECT_TRUE(S.empty());
}

TEST(SchedulerTest, HeapLaneOrdersInterleavedPastAndFutureSchedules) {
  // Schedules arrive out of order, interleaved with pops that advance
  // the head instant; pops must still come out in global time order.
  Scheduler S;
  SlotEvents Ev;

  S.scheduleUpdate(Time::ns(5), update(5));
  S.scheduleUpdate(Time::ns(1), update(1));
  S.scheduleUpdate(Time::ns(9), update(9));

  EXPECT_EQ(S.nextTime(), Time::ns(1));
  S.pop(Ev); // Head instant is now 1ns.
  ASSERT_EQ(Ev.Recs.size(), 1u);
  EXPECT_EQ(driverOf(Ev, 0), 1u);

  // Current-instant deltas (fast lane), a nearer future time than the
  // pending 5ns, and one at a pending instant's delta.
  S.scheduleUpdate(Time(Time::ns(1).Fs, 1, 0), update(11));
  S.scheduleUpdate(Time::ns(3), update(3));
  S.scheduleUpdate(Time(Time::ns(5).Fs, 2, 0), update(52));

  std::vector<Time> Rest = drain(S);
  ASSERT_EQ(Rest.size(), 5u);
  EXPECT_EQ(Rest[0], Time(Time::ns(1).Fs, 1, 0));
  EXPECT_EQ(Rest[1], Time::ns(3));
  EXPECT_EQ(Rest[2], Time::ns(5));
  EXPECT_EQ(Rest[3], Time(Time::ns(5).Fs, 2, 0));
  EXPECT_EQ(Rest[4], Time::ns(9));
}

TEST(SchedulerTest, SameInstantHeapSlotsMigrateToFastLane) {
  // Two slots at the same future instant but different deltas: popping
  // the first anchors the instant; the second must still pop next, and
  // new same-instant schedules merge with it.
  Scheduler S;
  SlotEvents Ev;
  S.scheduleUpdate(Time::ns(2), update(1));
  S.scheduleUpdate(Time(Time::ns(2).Fs, 1, 0), update(2));

  S.pop(Ev);
  ASSERT_EQ(Ev.Recs.size(), 1u);
  EXPECT_EQ(driverOf(Ev, 0), 1u);

  // Merge into the migrated delta-1 slot.
  S.scheduleUpdate(Time(Time::ns(2).Fs, 1, 0), update(3));
  EXPECT_EQ(S.nextTime(), Time(Time::ns(2).Fs, 1, 0));
  S.pop(Ev);
  ASSERT_EQ(Ev.Recs.size(), 2u);
  EXPECT_EQ(driverOf(Ev, 0), 2u);
  EXPECT_EQ(driverOf(Ev, 1), 3u);
  EXPECT_TRUE(S.empty());
}

TEST(SchedulerTest, WordAndGeneralRecordsPopInSchedulingOrder) {
  // One slot receives word records (whole-signal scalar drives) and
  // general records (sub-signal and wide drives) interleaved, including
  // two word drives and one sub-signal drive of signal 3. The stream pops
  // in scheduling order, each general record indexes its own payload, and
  // the checkpoint view re-expands word records in place.
  Scheduler S;
  Time T(0, 1, 0);
  SigRef Whole3;
  Whole3.Sig = 3;
  SigRef Low3 = Whole3.bits(0, 4);
  SigRef Whole5;
  Whole5.Sig = 5;
  S.scheduleWord(T, 3, 8, 0x11, 1);
  S.scheduleUpdate(T, update(2));
  S.scheduleDrive(T, RtValue(Whole3), RtValue(IntValue(8, 0x22)), 3);
  S.scheduleDrive(T, RtValue(Low3), RtValue(IntValue(4, 0x5)), 4);
  S.scheduleDrive(T, RtValue(Whole5), RtValue(IntValue(128, 7)), 5);
  S.scheduleWord(T, 5, 16, 0xbeef, 6);

  const bool IsWord[] = {true, false, true, false, false, true};
  std::vector<Scheduler::PendingSlot> P = S.pendingSlots();
  ASSERT_EQ(P.size(), 1u);
  ASSERT_EQ(P[0].Updates.size(), 6u);
  for (uint64_t I = 0; I != 6; ++I)
    EXPECT_EQ(P[0].Updates[I].Driver, I + 1);
  EXPECT_EQ(P[0].Updates[0].Ref, Whole3);
  EXPECT_EQ(P[0].Updates[0].Val, RtValue(IntValue(8, 0x11)));
  EXPECT_EQ(P[0].Updates[3].Ref, Low3);
  EXPECT_EQ(P[0].Updates[5].Val, RtValue(IntValue(16, 0xbeef)));

  SlotEvents Ev;
  S.pop(Ev);
  ASSERT_EQ(Ev.Recs.size(), 6u);
  ASSERT_EQ(Ev.General.size(), 3u);
  for (uint64_t I = 0; I != 6; ++I) {
    EXPECT_EQ(Ev.Recs[I].isWord(), IsWord[I]) << "record " << I;
    EXPECT_EQ(driverOf(Ev, I), I + 1) << "record " << I;
  }
  EXPECT_EQ(Ev.Recs[2].Sig, 3u);
  EXPECT_EQ(Ev.Recs[2].Width, 8u);
  EXPECT_EQ(Ev.Recs[2].Word, 0x22u);
  EXPECT_EQ(Ev.General[Ev.Recs[3].Word].Ref, Low3);
  EXPECT_EQ(Ev.General[Ev.Recs[4].Word].Val, RtValue(IntValue(128, 7)));
  EXPECT_TRUE(S.empty());
}

TEST(SchedulerTest, WakesAndUpdatesShareSlots) {
  Scheduler S;
  SlotEvents Ev;
  S.scheduleWake(Time::ns(1), {7, 42});
  S.scheduleUpdate(Time::ns(1), update(1));
  S.scheduleWake(Time::ns(1), {8, 43});

  S.pop(Ev);
  ASSERT_EQ(Ev.Recs.size(), 1u);
  ASSERT_EQ(Ev.Wakes.size(), 2u);
  EXPECT_EQ(Ev.Wakes[0].Proc, 7u);
  EXPECT_EQ(Ev.Wakes[0].Gen, 42u);
  EXPECT_EQ(Ev.Wakes[1].Proc, 8u);
  EXPECT_TRUE(S.empty());
}

//===----------------------------------------------------------------------===//
// Stale-timer generation guard (through the event loop)
//===----------------------------------------------------------------------===//

struct SchedulerSimTest : public ::testing::Test {
  Context Ctx;
  Module M{Ctx, "t"};

  InterpSim makeSim(const char *Src, const std::string &Top) {
    ParseResult R = parseModule(Src, M);
    EXPECT_TRUE(R.Ok) << R.Error;
    Design D = elaborate(M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    return InterpSim(std::move(D));
  }
};

TEST_F(SchedulerSimTest, StaleTimerDoesNotRewakeProcess) {
  // The process waits on %a with a 10ns timeout; %a changes at 1ns.
  // The 10ns timer (scheduled with the old generation) must not fire
  // the process out of its second wait, so the counter stays at 1 and
  // the run ends at the second wait's own 20ns timeout.
  InterpSim Sim = makeSim(R"(
entity @top () -> () {
  %zero1 = const i1 0
  %zero8 = const i8 0
  %a = sig i1 %zero1
  %cnt = sig i8 %zero8
  inst @waiter (i1$ %a) -> (i8$ %cnt)
  inst @stim () -> (i1$ %a)
}
proc @waiter (i1$ %a) -> (i8$ %cnt) {
entry:
  %t10 = const time 10ns
  wait %woke for %a, %t10
woke:
  %c = prb i8$ %cnt
  %one = const i8 1
  %n = add i8 %c, %one
  %zt = const time 0s
  drv i8$ %cnt, %n after %zt
  %t20 = const time 20ns
  wait %done for %t20
done:
  halt
}
proc @stim () -> (i1$ %a) {
entry:
  %b1 = const i1 1
  %t1 = const time 1ns
  drv i1$ %a, %b1 after %t1
  halt
}
)", "top");
  SimStats St = Sim.run();
  EXPECT_TRUE(St.Finished);

  const SignalTable &Sig = Sim.signals();
  for (SignalId I = 0; I != Sig.size(); ++I)
    if (Sig.name(I).find("/cnt") != std::string::npos)
      EXPECT_EQ(Sig.value(I).intValue().zextToU64(), 1u)
          << "stale timer re-woke the process";
  // Woken at 1ns by the signal, halted at 1ns + 20ns.
  EXPECT_EQ(St.EndTime.Fs, Time::ns(21).Fs);
}

} // namespace
