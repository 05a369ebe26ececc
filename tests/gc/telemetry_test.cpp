//===- tests/gc/telemetry_test.cpp - Observability layer -----------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// Covers the gc/telemetry/ layer end to end: phase timers reconciling
// with DurationNanos, the event ring's wrap discipline, trace recording
// and the Chrome trace_event exporter (round-tripped through a JSON
// parse), the heap census against the heap's own usage accounting,
// survival-rate history, GcTotals accumulating every GcStats field, and
// the GENGC_GC_LOG / GENGC_GC_TRACE environment overrides.
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "gc/telemetry/Census.h"
#include "gc/telemetry/TraceExport.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

HeapConfig tracedConfig() {
  HeapConfig C = testConfig();
  C.GcTrace = true;
  return C;
}

//===----------------------------------------------------------------------===//
// A minimal recursive-descent JSON parser, just enough to check that
// the Chrome trace exporter emits well-formed JSON (the acceptance
// criterion: the trace round-trips through a JSON parse).
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(std::string Text) : Text(std::move(Text)) {}

  /// True if the whole text is exactly one valid JSON value.
  bool valid() {
    Pos = 0;
    if (!value())
      return false;
    ws();
    return Pos == Text.size();
  }

private:
  void ws() {
    while (Pos != Text.size() && std::isspace(
                                     static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }
  bool lit(const char *S) {
    size_t N = std::strlen(S);
    if (Text.compare(Pos, N, S) != 0)
      return false;
    Pos += N;
    return true;
  }
  bool string() {
    if (Text[Pos] != '"')
      return false;
    for (++Pos; Pos != Text.size(); ++Pos) {
      if (Text[Pos] == '\\') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '"') {
        ++Pos;
        return true;
      }
    }
    return false;
  }
  bool number() {
    size_t Start = Pos;
    if (Pos != Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos != Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    return Pos != Start;
  }
  bool object() {
    ++Pos; // '{'
    ws();
    if (Pos != Text.size() && Text[Pos] == '}')
      return ++Pos, true;
    while (Pos != Text.size()) {
      ws();
      if (!string())
        return false;
      ws();
      if (Pos == Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      if (!value())
        return false;
      ws();
      if (Pos == Text.size())
        return false;
      if (Text[Pos] == '}')
        return ++Pos, true;
      if (Text[Pos] != ',')
        return false;
      ++Pos;
    }
    return false;
  }
  bool array() {
    ++Pos; // '['
    ws();
    if (Pos != Text.size() && Text[Pos] == ']')
      return ++Pos, true;
    while (Pos != Text.size()) {
      if (!value())
        return false;
      ws();
      if (Pos == Text.size())
        return false;
      if (Text[Pos] == ']')
        return ++Pos, true;
      if (Text[Pos] != ',')
        return false;
      ++Pos;
    }
    return false;
  }
  bool value() {
    ws();
    if (Pos == Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }

  std::string Text;
  size_t Pos = 0;
};

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

/// A workload big enough that the pause is well above clock
/// granularity, so the 5% phase-sum reconciliation is meaningful.
void buildLiveList(Heap &H, Root &L, int Pairs) {
  for (int I = 0; I != Pairs; ++I)
    L = H.cons(Value::fixnum(I), L.get());
}

//===----------------------------------------------------------------------===//
// Phase timers.
//===----------------------------------------------------------------------===//

TEST(PhaseTimerTest, PhaseSumsReconcileWithDuration) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  buildLiveList(H, L, 100000);
  H.collectMinor();
  const GcStats &S = H.lastStats();
  const uint64_t PhaseSum = S.Phases.totalNanos();
  ASSERT_GT(S.DurationNanos, 0u);
  // Phases nest strictly inside the pause...
  EXPECT_LE(PhaseSum, S.DurationNanos);
  // ...and account for it: the gap is only inter-phase bookkeeping.
  // Allow 5% plus a fixed floor for clock granularity on fast machines.
  const uint64_t Gap = S.DurationNanos - PhaseSum;
  EXPECT_LE(Gap, S.DurationNanos / 20 + 20000)
      << "phase sum " << PhaseSum << " vs pause " << S.DurationNanos;
  // The dominant phase of a copy-heavy minor collection is the copy.
  EXPECT_GT(S.Phases[GcPhase::Copy], 0u);
}

TEST(PhaseTimerTest, EveryCollectionFillsPhases) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  for (int Round = 0; Round != 3; ++Round) {
    buildLiveList(H, L, 1000);
    H.collectMinor();
    EXPECT_GT(H.lastStats().Phases.totalNanos(), 0u);
  }
  // Totals accumulate the per-phase nanos too.
  EXPECT_GE(H.totals().Phases.totalNanos(),
            H.lastStats().Phases.totalNanos());
  EXPECT_LE(H.totals().Phases.totalNanos(), H.totals().DurationNanos);
}

//===----------------------------------------------------------------------===//
// The event ring.
//===----------------------------------------------------------------------===//

TEST(EventRingTest, WrapKeepsNewestEvents) {
  GcEventRing Ring;
  Ring.reset(4);
  EXPECT_EQ(Ring.capacity(), 4u);
  for (uint64_t I = 0; I != 10; ++I) {
    GcEvent E;
    E.A = I;
    Ring.push(E);
  }
  EXPECT_EQ(Ring.recorded(), 10u);
  EXPECT_EQ(Ring.size(), 4u);
  std::vector<GcEvent> Events = Ring.snapshot();
  ASSERT_EQ(Events.size(), 4u);
  // Oldest-first snapshot of the newest four: A = 6, 7, 8, 9.
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_EQ(Events[I].A, 6 + I);
    EXPECT_EQ(Events[I].Seq, 6 + I);
  }
}

TEST(EventRingTest, PartialFillReturnsAllInOrder) {
  GcEventRing Ring;
  Ring.reset(8);
  for (uint64_t I = 0; I != 3; ++I) {
    GcEvent E;
    E.A = 100 + I;
    Ring.push(E);
  }
  EXPECT_EQ(Ring.size(), 3u);
  std::vector<GcEvent> Events = Ring.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  for (size_t I = 0; I != 3; ++I)
    EXPECT_EQ(Events[I].A, 100 + I);
}

TEST(EventRingTest, DisabledTelemetryRecordsNothing) {
  GcTelemetry T;
  T.Ring.reset(16);
  T.TraceEnabled = false;
  GcEvent E;
  E.A = 42;
  T.emit(E);
  EXPECT_EQ(T.Ring.recorded(), 0u);
  T.TraceEnabled = true;
  T.emit(E);
  EXPECT_EQ(T.Ring.recorded(), 1u);
}

//===----------------------------------------------------------------------===//
// Trace recording through a real collection.
//===----------------------------------------------------------------------===//

TEST(TraceTest, CollectionEmitsBeginPhasesEnd) {
  Heap H(tracedConfig());
  ASSERT_TRUE(H.telemetry().TraceEnabled);
  Root L(H, Value::nil());
  buildLiveList(H, L, 2000);
  H.collectMinor();

  std::vector<GcEvent> Events = H.telemetry().Ring.snapshot();
  ASSERT_FALSE(Events.empty());

  // Mutator allocation shows up as segment-alloc events before the
  // collection does anything.
  size_t Allocs = 0;
  for (const GcEvent &E : Events)
    if (E.Type == GcEventType::SegmentAlloc)
      ++Allocs;
  EXPECT_GT(Allocs, 0u);

  // Exactly one collection: begin, the nine phases in order, end.
  size_t Begins = 0, Ends = 0;
  std::vector<uint16_t> PhaseDetails;
  uint64_t PhaseNanos = 0;
  for (const GcEvent &E : Events) {
    switch (E.Type) {
    case GcEventType::CollectionBegin:
      ++Begins;
      EXPECT_EQ(E.Collection, 1u);
      break;
    case GcEventType::CollectionEnd:
      ++Ends;
      EXPECT_EQ(E.Collection, 1u);
      EXPECT_EQ(E.DurNanos, H.lastStats().DurationNanos);
      EXPECT_EQ(E.A, H.lastStats().BytesCopied);
      break;
    case GcEventType::PhaseSpan:
      PhaseDetails.push_back(E.Detail);
      PhaseNanos += E.DurNanos;
      break;
    default:
      break;
    }
  }
  EXPECT_EQ(Begins, 1u);
  EXPECT_EQ(Ends, 1u);
  ASSERT_EQ(PhaseDetails.size(), NumGcPhases);
  for (unsigned I = 0; I != NumGcPhases; ++I)
    EXPECT_EQ(PhaseDetails[I], I) << "phases must appear in order";
  EXPECT_EQ(PhaseNanos, H.lastStats().Phases.totalNanos());
}

TEST(TraceTest, PromotionAndReclaimEventsAppear) {
  Heap H(tracedConfig());
  Root L(H, Value::nil());
  buildLiveList(H, L, 2000);
  // Plenty of garbage so the reclaim phase frees segments.
  for (int I = 0; I != 5000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  H.collectMinor();
  ASSERT_GT(H.lastStats().ObjectsPromoted, 0u);
  ASSERT_GT(H.lastStats().SegmentsFreed, 0u);

  bool SawPromotion = false, SawFree = false;
  for (const GcEvent &E : H.telemetry().Ring.snapshot()) {
    if (E.Type == GcEventType::TenurePromotion) {
      SawPromotion = true;
      EXPECT_EQ(E.A, H.lastStats().ObjectsPromoted);
    }
    if (E.Type == GcEventType::SegmentFree)
      SawFree = true;
  }
  EXPECT_TRUE(SawPromotion);
  EXPECT_TRUE(SawFree);
}

TEST(TraceTest, GuardianResurrectionEventCarriesCount) {
  Heap H(tracedConfig());
  Root G(H, H.makeGuardianTconc());
  {
    Root Obj(H, H.cons(Value::fixnum(1), Value::fixnum(2)));
    H.guardianProtect(G.get(), Obj.get());
  }
  H.collectMinor(); // The pair is inaccessible: one resurrection round.
  ASSERT_GT(H.lastStats().GuardianObjectsSaved, 0u);
  bool Saw = false;
  for (const GcEvent &E : H.telemetry().Ring.snapshot())
    if (E.Type == GcEventType::GuardianResurrection) {
      Saw = true;
      EXPECT_GT(E.A, 0u);
    }
  EXPECT_TRUE(Saw);
}

//===----------------------------------------------------------------------===//
// Exporters.
//===----------------------------------------------------------------------===//

TEST(TraceExportTest, ChromeTraceRoundTripsThroughJsonParse) {
  Heap H(tracedConfig());
  Root L(H, Value::nil());
  Root G(H, H.makeGuardianTconc());
  for (int Round = 0; Round != 4; ++Round) {
    buildLiveList(H, L, 500);
    {
      Root Obj(H, H.cons(Value::fixnum(Round), Value::nil()));
      H.guardianProtect(G.get(), Obj.get());
    }
    H.collectMinor();
  }
  std::ostringstream OS;
  writeChromeTrace(H.telemetry(), OS);
  const std::string Json = OS.str();

  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json.substr(0, 400);

  // Structure: the trace_event object format, with one "X" complete
  // span per phase per collection plus one per collection itself.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_GE(countOccurrences(Json, "\"ph\":\"X\""), 4 * (NumGcPhases + 1));
  EXPECT_GE(countOccurrences(Json, "\"collection\""), 4u);
}

TEST(TraceExportTest, EventLogHasOneLinePerEvent) {
  Heap H(tracedConfig());
  Root L(H, Value::nil());
  buildLiveList(H, L, 200);
  H.collectMinor();
  std::ostringstream OS;
  writeEventLog(H.telemetry(), OS);
  const std::string Log = OS.str();
  EXPECT_EQ(countOccurrences(Log, "\n"), H.telemetry().Ring.size());
  EXPECT_NE(Log.find("collection-begin"), std::string::npos);
  EXPECT_NE(Log.find("phase"), std::string::npos);
  EXPECT_NE(Log.find("collection-end"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Census.
//===----------------------------------------------------------------------===//

TEST(CensusTest, TotalsMatchHeapUsageAccounting) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  buildLiveList(H, L, 1000);
  Root V(H, H.makeVector(32, Value::fixnum(7)));
  Root S(H, H.makeString("census under test"));
  H.collectMinor(); // Survivors now sit in generation 1.
  buildLiveList(H, L, 500); // Fresh generation-0 data too.

  HeapCensus C = H.census();
  EXPECT_EQ(C.Generations, H.config().Generations);
  EXPECT_EQ(C.totalUsedBytes(), H.liveBytes());
  EXPECT_EQ(C.totalSegments(), H.segmentsInUse());
  for (unsigned G = 0; G != H.config().Generations; ++G) {
    uint64_t Bytes = 0, Segments = 0;
    for (unsigned Sp = 0; Sp != NumSpaces; ++Sp) {
      Bytes += C.Cells[G][Sp].UsedBytes;
      Segments += C.Cells[G][Sp].SegmentCount;
    }
    EXPECT_EQ(Bytes, H.generationUsage(G).UsedBytes) << "generation " << G;
    EXPECT_EQ(Segments, H.generationUsage(G).SegmentCount)
        << "generation " << G;
  }
}

TEST(CensusTest, HistogramClassifiesKinds) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  buildLiveList(H, L, 100);
  Root W(H, H.weakCons(Value::fixnum(1), Value::nil()));
  Root V(H, H.makeVector(8, Value::nil()));
  Root S(H, H.makeString("hello"));
  Root B(H, H.makeBox(Value::fixnum(9)));
  Root G(H, H.makeGuardianTconc());

  HeapCensus C = H.census();
  EXPECT_GE(C.kindCount(CensusKind::Pair), 100u);
  EXPECT_GE(C.kindCount(CensusKind::WeakPair), 1u);
  EXPECT_GE(C.kindCount(CensusKind::Vector), 1u);
  EXPECT_GE(C.kindCount(CensusKind::String), 1u);
  EXPECT_GE(C.kindCount(CensusKind::Box), 1u);
  EXPECT_GT(C.kindBytes(CensusKind::Pair), 100u * 16);
  // Histogram object count agrees with the per-cell object count.
  uint64_t HistogramTotal = 0;
  for (unsigned K = 0; K != NumCensusKinds; ++K)
    HistogramTotal += C.KindCounts[K];
  EXPECT_EQ(HistogramTotal, C.totalObjects());
}

//===----------------------------------------------------------------------===//
// Survival-rate history.
//===----------------------------------------------------------------------===//

TEST(SurvivalTest, RateMatchesCopiedFraction) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  buildLiveList(H, L, 1000);
  for (int I = 0; I != 5000; ++I)
    H.cons(Value::fixnum(I), Value::nil()); // Garbage.
  H.collectMinor();
  const GcStats &S = H.lastStats();
  ASSERT_GT(S.BytesInFromSpace, 0u);
  const double Expected = static_cast<double>(S.BytesCopied) /
                          static_cast<double>(S.BytesInFromSpace);
  const double Rate = H.survivalRate(0);
  EXPECT_GT(Rate, 0.0);
  EXPECT_LT(Rate, 1.0); // Most of the from-space was garbage.
  EXPECT_DOUBLE_EQ(Rate, Expected);
  // No generation-2 collection has happened: no sample, negative rate.
  EXPECT_LT(H.survivalRate(2), 0.0);
  EXPECT_EQ(H.telemetry().survivalSamples(0), 1u);
  EXPECT_EQ(H.telemetry().survivalSamples(2), 0u);
}

TEST(SurvivalTest, HistoryIsRecordedWithoutTracing) {
  Heap H(testConfig()); // Tracing off; history must still accumulate.
  Root L(H, Value::nil());
  for (int Round = 0; Round != 3; ++Round) {
    buildLiveList(H, L, 200);
    H.collectMinor();
  }
  EXPECT_FALSE(H.telemetry().TraceEnabled);
  EXPECT_EQ(H.telemetry().HistoryRecorded, 3u);
  EXPECT_EQ(H.telemetry().survivalSamples(0), 3u);
}

//===----------------------------------------------------------------------===//
// GcTotals must accumulate every GcStats counter (the satellite fix:
// accumulate() used to drop several fields silently).
//===----------------------------------------------------------------------===//

TEST(GcTotalsTest, AccumulateCoversEveryField) {
  GcStats S;
  S.CollectedGeneration = 3; // == oldest below: counts as a full GC.
  S.TargetGeneration = 3;
  S.ObjectsCopied = 11;
  S.BytesCopied = 13;
  S.ObjectsPromoted = 17;
  S.RootsScanned = 19;
  S.RememberedObjectsScanned = 23;
  S.BytesInFromSpace = 29;
  S.ProtectedEntriesVisited = 31;
  S.GuardianObjectsSaved = 37;
  S.ProtectedEntriesKept = 41;
  S.GuardianEntriesDropped = 43;
  S.GuardianLoopIterations = 47;
  S.WeakPairsExamined = 53;
  S.WeakPointersBroken = 59;
  S.FinalizerThunksRun = 61;
  S.SymbolsDropped = 67;
  S.SegmentsFreed = 71;
  S.DurationNanos = 73;
  S.BarriersExecuted = 79;
  S.BarriersElided = 83;
  for (unsigned I = 0; I != NumGcPhases; ++I)
    S.Phases.Nanos[I] = 100 + I;

  GcTotals T;
  T.accumulate(S, /*OldestGeneration=*/3);
  T.accumulate(S, /*OldestGeneration=*/3);

  EXPECT_EQ(T.Collections, 2u);
  EXPECT_EQ(T.FullCollections, 2u);
  EXPECT_EQ(T.ObjectsCopied, 2 * S.ObjectsCopied);
  EXPECT_EQ(T.BytesCopied, 2 * S.BytesCopied);
  EXPECT_EQ(T.ObjectsPromoted, 2 * S.ObjectsPromoted);
  EXPECT_EQ(T.RootsScanned, 2 * S.RootsScanned);
  EXPECT_EQ(T.RememberedObjectsScanned, 2 * S.RememberedObjectsScanned);
  EXPECT_EQ(T.BytesInFromSpace, 2 * S.BytesInFromSpace);
  EXPECT_EQ(T.ProtectedEntriesVisited, 2 * S.ProtectedEntriesVisited);
  EXPECT_EQ(T.GuardianObjectsSaved, 2 * S.GuardianObjectsSaved);
  EXPECT_EQ(T.ProtectedEntriesKept, 2 * S.ProtectedEntriesKept);
  EXPECT_EQ(T.GuardianEntriesDropped, 2 * S.GuardianEntriesDropped);
  EXPECT_EQ(T.GuardianLoopIterations, 2 * S.GuardianLoopIterations);
  EXPECT_EQ(T.WeakPairsExamined, 2 * S.WeakPairsExamined);
  EXPECT_EQ(T.WeakPointersBroken, 2 * S.WeakPointersBroken);
  EXPECT_EQ(T.FinalizerThunksRun, 2 * S.FinalizerThunksRun);
  EXPECT_EQ(T.SymbolsDropped, 2 * S.SymbolsDropped);
  EXPECT_EQ(T.SegmentsFreed, 2 * S.SegmentsFreed);
  EXPECT_EQ(T.DurationNanos, 2 * S.DurationNanos);
  EXPECT_EQ(T.BarriersExecuted, 2 * S.BarriersExecuted);
  EXPECT_EQ(T.BarriersElided, 2 * S.BarriersElided);
  for (unsigned I = 0; I != NumGcPhases; ++I)
    EXPECT_EQ(T.Phases.Nanos[I], 2 * S.Phases.Nanos[I]);

  // A non-oldest collection is not a full collection.
  GcStats Minor = S;
  Minor.CollectedGeneration = 0;
  T.accumulate(Minor, /*OldestGeneration=*/3);
  EXPECT_EQ(T.Collections, 3u);
  EXPECT_EQ(T.FullCollections, 2u);
}

TEST(GcTotalsTest, BarrierCountersWindowPerCollection) {
  Heap H(testConfig());
  Root P(H, H.cons(Value::nil(), Value::nil()));
  H.setCar(P.get(), Value::fixnum(1)); // Barriered.
  H.setCarElided(P.get(), Value::falseV(), StoreElision::Immediate);
  const uint64_t Exec = H.barriersExecuted();
  const uint64_t Elided = H.barriersElided();
  EXPECT_GE(Exec, 1u);
  EXPECT_GE(Elided, 1u);

  // First collection: its stats window covers everything so far.
  H.collectMinor();
  EXPECT_EQ(H.lastStats().BarriersExecuted, Exec);
  EXPECT_EQ(H.lastStats().BarriersElided, Elided);

  // Second window contains only the stores made in between.
  H.setCar(P.get(), Value::fixnum(2));
  H.setCar(P.get(), Value::fixnum(3));
  H.setCarElided(P.get(), Value::falseV(), StoreElision::Immediate);
  H.collectMinor();
  EXPECT_EQ(H.lastStats().BarriersExecuted, 2u);
  EXPECT_EQ(H.lastStats().BarriersElided, 1u);

  // Totals carry the sum of the windows; the heap-level counters are
  // monotonic and include post-collection stores too.
  EXPECT_EQ(H.totals().BarriersExecuted, Exec + 2);
  EXPECT_EQ(H.totals().BarriersElided, Elided + 1);
  H.setCar(P.get(), Value::fixnum(4));
  EXPECT_EQ(H.barriersExecuted(), Exec + 3);
}

TEST(GcTotalsTest, LiveHeapKeepsRunningTotals) {
  Heap H(testConfig());
  Root L(H, Value::nil());
  uint64_t BytesCopiedSum = 0, FromSpaceSum = 0, PromotedSum = 0;
  for (int Round = 0; Round != 3; ++Round) {
    buildLiveList(H, L, 300);
    H.collectMinor();
    BytesCopiedSum += H.lastStats().BytesCopied;
    FromSpaceSum += H.lastStats().BytesInFromSpace;
    PromotedSum += H.lastStats().ObjectsPromoted;
  }
  EXPECT_EQ(H.totals().Collections, 3u);
  EXPECT_EQ(H.totals().BytesCopied, BytesCopiedSum);
  EXPECT_EQ(H.totals().BytesInFromSpace, FromSpaceSum);
  EXPECT_EQ(H.totals().ObjectsPromoted, PromotedSum);
}

//===----------------------------------------------------------------------===//
// Allocation gauge.
//===----------------------------------------------------------------------===//

TEST(AllocationGaugeTest, TotalBytesAllocatedIsMonotonic) {
  Heap H(testConfig());
  const uint64_t Before = H.totalBytesAllocated();
  for (int I = 0; I != 1000; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  const uint64_t AfterAlloc = H.totalBytesAllocated();
  EXPECT_GE(AfterAlloc, Before + 1000 * 16);
  // Collection reclaims liveBytes() but never rolls back the
  // cumulative allocation gauge.
  H.collectMinor();
  EXPECT_GE(H.totalBytesAllocated(), AfterAlloc);
}

//===----------------------------------------------------------------------===//
// Environment overrides.
//===----------------------------------------------------------------------===//

class EnvOverrideTest : public ::testing::Test {
protected:
  void SetUp() override {
    saveVar("GENGC_GC_LOG");
    saveVar("GENGC_GC_TRACE");
  }
  void TearDown() override {
    for (auto &[Name, Old] : Saved) {
      if (Old.second)
        setenv(Name.c_str(), Old.first.c_str(), 1);
      else
        unsetenv(Name.c_str());
    }
  }
  void saveVar(const char *Name) {
    const char *V = std::getenv(Name);
    Saved.emplace_back(Name,
                       std::make_pair(V ? V : "", V != nullptr));
    unsetenv(Name);
  }
  std::vector<std::pair<std::string, std::pair<std::string, bool>>> Saved;
};

TEST_F(EnvOverrideTest, TraceVarEnablesRecording) {
  setenv("GENGC_GC_TRACE", "1", 1);
  Heap H(testConfig());
  EXPECT_TRUE(H.telemetry().TraceEnabled);
  EXPECT_TRUE(H.telemetry().TraceDumpPath.empty());
}

TEST_F(EnvOverrideTest, LogVarForcesOffOverConfig) {
  setenv("GENGC_GC_LOG", "0", 1);
  HeapConfig C = testConfig();
  C.GcLog = true;
  Heap H(C);
  EXPECT_FALSE(H.telemetry().LogEnabled);
}

TEST_F(EnvOverrideTest, TracePathDumpsChromeJsonOnDestruction) {
  const std::string Path = "telemetry_env_dump_test.json";
  setenv("GENGC_GC_TRACE", Path.c_str(), 1);
  {
    Heap H(testConfig());
    EXPECT_TRUE(H.telemetry().TraceEnabled);
    EXPECT_EQ(H.telemetry().TraceDumpPath, Path);
    Root L(H, Value::nil());
    for (int I = 0; I != 200; ++I)
      L = H.cons(Value::fixnum(I), L.get());
    H.collectMinor();
  } // Destructor writes the trace.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "heap destructor must dump the trace";
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  In.close();
  std::remove(Path.c_str());
  const std::string Json = Buffer.str();
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json.substr(0, 400);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
}

} // namespace
