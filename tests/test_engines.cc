/**
 * @file
 * Engine tests: homogeneous-automata semantics of the NFA
 * interpreter, AP counter behaviour (latch/pulse/rollover, resets),
 * NFA vs multi-DFA report equivalence on random automata, DFA
 * compilation bounds and fallback, the engine selector's names, and
 * the analytic spatial model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/builder.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/planner.hh"
#include "engine/spatial_model.hh"
#include "util/rng.hh"

namespace azoo {
namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

std::vector<Report>
sortedReports(SimResult r)
{
    std::sort(r.reports.begin(), r.reports.end());
    return r.reports;
}

/** Assert @p got is bit-identical to the interpreter result @p ref on
 *  every semantic field (reports compared in canonical order). */
void
expectSameSemantics(const SimResult &ref, const SimResult &got)
{
    SimResult canon = ref;
    std::sort(canon.reports.begin(), canon.reports.end());
    EXPECT_EQ(canon.reports, got.reports);
    EXPECT_EQ(canon.reportCount, got.reportCount);
    EXPECT_EQ(canon.totalEnabled, got.totalEnabled);
    EXPECT_EQ(canon.reportingCycles, got.reportingCycles);
    EXPECT_EQ(canon.byCode, got.byCode);
}

SimOptions
fullOptions()
{
    SimOptions opts;
    opts.countByCode = true;
    return opts;
}

TEST(NfaEngine, StartOfDataFiresOnlyAtOffsetZero)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kStartOfData, true, 1);
    NfaEngine e(a);
    auto r1 = e.simulate(bytes("abab"));
    ASSERT_EQ(r1.reportCount, 1u);
    EXPECT_EQ(r1.reports[0].offset, 1u);
    auto r2 = e.simulate(bytes("xab"));
    EXPECT_EQ(r2.reportCount, 0u);
}

TEST(NfaEngine, AllInputFiresAtEveryOffset)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kAllInput, true, 1);
    NfaEngine e(a);
    auto r = e.simulate(bytes("abxab"));
    ASSERT_EQ(r.reportCount, 2u);
    EXPECT_EQ(r.reports[0].offset, 1u);
    EXPECT_EQ(r.reports[1].offset, 4u);
}

TEST(NfaEngine, SelfLoopStaysActive)
{
    Automaton a("t");
    ElementId star = addStarState(a, CharSet::single('a'));
    ElementId end = a.addSte(CharSet::single('b'), StartType::kNone,
                             true, 1);
    a.addEdge(star, end);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaab")).reportCount, 1u);
    EXPECT_EQ(e.simulate(bytes("b")).reportCount, 0u);
}

TEST(NfaEngine, ActiveSetExcludesAlwaysOnStarts)
{
    Automaton a("t");
    // One all-input state enabling a successor on 'a'.
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId t = a.addSte(CharSet::single('b'));
    a.addEdge(s, t);
    NfaEngine e(a);
    auto r = e.simulate(bytes("aaaa"));
    // 's' is never counted; 't' is enabled for offsets 1..4 (3 of
    // them within the input window).
    EXPECT_EQ(r.totalEnabled, 3u);
}

TEST(NfaEngine, ReportRecordLimitCapsVectorNotCount)
{
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    NfaEngine e(a);
    SimOptions opts;
    opts.reportRecordLimit = 3;
    auto r = e.simulate(bytes("aaaaaaaa"), opts);
    EXPECT_EQ(r.reportCount, 8u);
    EXPECT_EQ(r.reports.size(), 3u);
}

TEST(NfaEngine, ReportingCyclesCountCyclesNotReports)
{
    Automaton a("t");
    // Two rules that both fire on 'a'.
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    addLiteral(a, "a", StartType::kAllInput, true, 2);
    NfaEngine e(a);
    auto r = e.simulate(bytes("aaxa"));
    EXPECT_EQ(r.reportCount, 6u);
    EXPECT_EQ(r.reportingCycles, 3u);
    EXPECT_DOUBLE_EQ(r.reportingCycleFraction(), 0.75);
}

TEST(NfaEngine, CountByCode)
{
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 10);
    addLiteral(a, "b", StartType::kAllInput, true, 20);
    NfaEngine e(a);
    SimOptions opts;
    opts.countByCode = true;
    auto r = e.simulate(bytes("aabbb"), opts);
    EXPECT_EQ(r.byCode[10], 2u);
    EXPECT_EQ(r.byCode[20], 3u);
}

/** Build: 'a' matcher -> counter(target, mode); counter reports. */
Automaton
counterAutomaton(uint32_t target, CounterMode mode, bool with_reset)
{
    Automaton a("c");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput,
                           false, 0);
    ElementId c = a.addCounter(target, mode, true, 99);
    a.addEdge(s, c);
    if (with_reset) {
        ElementId r = a.addSte(CharSet::single('r'),
                               StartType::kAllInput);
        a.addResetEdge(r, c);
    }
    return a;
}

TEST(Counters, FiresAtTarget)
{
    Automaton a = counterAutomaton(3, CounterMode::kLatch, false);
    NfaEngine e(a);
    auto r = e.simulate(bytes("aabxa"));
    ASSERT_EQ(r.reportCount, 1u);
    EXPECT_EQ(r.reports[0].offset, 4u); // third 'a'
    EXPECT_EQ(r.reports[0].code, 99u);
}

TEST(Counters, LatchFiresOnce)
{
    Automaton a = counterAutomaton(2, CounterMode::kLatch, false);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaaaaa")).reportCount, 1u);
}

TEST(Counters, RolloverFiresPeriodically)
{
    Automaton a = counterAutomaton(2, CounterMode::kRollover, false);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaaaaa")).reportCount, 3u);
}

TEST(Counters, PulseFiresOnceUntilReset)
{
    Automaton a = counterAutomaton(2, CounterMode::kPulse, true);
    NfaEngine e(a);
    EXPECT_EQ(e.simulate(bytes("aaaa")).reportCount, 1u);
    // Reset re-arms the count.
    EXPECT_EQ(e.simulate(bytes("aaraa")).reportCount, 2u);
}

TEST(Counters, ResetClearsProgress)
{
    Automaton a = counterAutomaton(3, CounterMode::kLatch, true);
    NfaEngine e(a);
    // Two a's, reset, two a's: never reaches 3.
    EXPECT_EQ(e.simulate(bytes("aaraa")).reportCount, 0u);
    EXPECT_EQ(e.simulate(bytes("aararaaa")).reportCount, 1u);
}

TEST(Counters, LatchKeepsSuccessorsEnabled)
{
    // counter(target 2, latch) -> 'z' matcher that reports.
    Automaton a("c");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId c = a.addCounter(2, CounterMode::kLatch);
    ElementId z = a.addSte(CharSet::single('z'), StartType::kNone,
                           true, 5);
    a.addEdge(s, c);
    a.addEdge(c, z);
    NfaEngine e(a);
    // After two a's, z stays armed: both later z's report.
    EXPECT_EQ(e.simulate(bytes("aaxzxz")).reportCount, 2u);
    // Pulse mode would arm z for one cycle only.
    a.element(c).mode = CounterMode::kPulse;
    NfaEngine e2(a);
    EXPECT_EQ(e2.simulate(bytes("aaxzxz")).reportCount, 0u);
    EXPECT_EQ(e2.simulate(bytes("aazxz")).reportCount, 1u);
}

TEST(SymbolClasses, SplitByEveryLabelInFirstByteOrder)
{
    // Both DFAs number their columns with this helper: bytes share a
    // class iff every label agrees on them, duplicates change
    // nothing, and class ids follow each class's first byte.
    auto words = [](const CharSet &cs) {
        LabelWords w;
        for (int i = 0; i < 4; ++i)
            w[i] = cs.word(i);
        return w;
    };
    const std::vector<LabelWords> labels = {
        words(CharSet::range('a', 'z')), words(CharSet::range('0', '9')),
        words(CharSet::single('m')), words(CharSet::range('a', 'z'))};
    const SymbolClasses sc = symbolClasses(labels);
    ASSERT_EQ(sc.count(), 4u);
    EXPECT_EQ(sc.rep, (std::vector<uint8_t>{0, '0', 'a', 'm'}));
    for (int b = 0; b < 256; ++b) {
        const uint8_t want = b >= '0' && b <= '9' ? 1
            : b == 'm'                           ? 3
            : b >= 'a' && b <= 'z'               ? 2
                                                 : 0;
        EXPECT_EQ(sc.classOf[b], want) << b;
    }
    const SymbolClasses none = symbolClasses({});
    EXPECT_EQ(none.count(), 1u);
    EXPECT_EQ(none.classOf, decltype(none.classOf){});
}

TEST(MultiDfa, MatchesNfaOnLiterals)
{
    Automaton a("t");
    addLiteral(a, "abc", StartType::kAllInput, true, 1);
    addLiteral(a, "bc", StartType::kAllInput, true, 2);
    NfaEngine nfa(a);
    MultiDfaEngine dfa(a);
    EXPECT_EQ(dfa.fallbackComponents(), 0u);
    auto in = bytes("xxabcxbcabc");
    EXPECT_EQ(sortedReports(nfa.simulate(in)),
              sortedReports(dfa.simulate(in)));
}

TEST(MultiDfa, CounterComponentsFallBackToNfa)
{
    Automaton a = counterAutomaton(3, CounterMode::kRollover, true);
    addLiteral(a, "xy", StartType::kAllInput, true, 7);
    MultiDfaEngine dfa(a);
    EXPECT_EQ(dfa.fallbackComponents(), 1u);
    EXPECT_EQ(dfa.compiledComponents(), 1u);
    NfaEngine nfa(a);
    auto in = bytes("aaxyaraaaxy");
    EXPECT_EQ(sortedReports(nfa.simulate(in)),
              sortedReports(dfa.simulate(in)));
}

TEST(MultiDfa, StateBudgetForcesFallback)
{
    // A component whose subset construction needs more states than
    // the budget: parallel counters of 'a' runs... use a long
    // bounded-repeat-like chain fed by a self loop, which blows up
    // the reachable subset count.
    Automaton a("big");
    ElementId star = addStarState(a, CharSet::all());
    ElementId prev = star;
    for (int i = 0; i < 24; ++i) {
        ElementId s = a.addSte(CharSet::single('a'));
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;

    MultiDfaOptions opts;
    opts.maxDfaStatesPerComponent = 16;
    MultiDfaEngine dfa(a, opts);
    EXPECT_EQ(dfa.fallbackComponents(), 1u);

    NfaEngine nfa(a);
    Rng rng(3);
    std::vector<uint8_t> in;
    for (int i = 0; i < 200; ++i)
        in.push_back(rng.nextBool(0.7) ? 'a' : 'b');
    EXPECT_EQ(sortedReports(nfa.simulate(in)),
              sortedReports(dfa.simulate(in)));
}

/** `--engine lazydfa`: a block PlannedEngine over
 *  fixedPlan(kLazyDfa), handing off at a @p cacheBytes cache. */
PlannedEngine
lazyEngine(const Automaton &a,
           size_t cacheBytes = PlanOptions().lazyCacheBytes)
{
    PlanOptions opts;
    opts.lazyCacheBytes = cacheBytes;
    return PlannedEngine(compileProgram(EngineKind::kLazyDfa, a, opts));
}

/** Components fixedPlan(kLazyDfa) put on @p b. */
uint32_t
planned(const PlannedEngine &e, PlanBackend b)
{
    return e.plan().backendCount[static_cast<size_t>(b)];
}

TEST(LazyDfa, MatchesNfaOnLiterals)
{
    Automaton a("t");
    addLiteral(a, "abc", StartType::kAllInput, true, 1);
    addLiteral(a, "bc", StartType::kAllInput, true, 2);
    NfaEngine nfa(a);
    PlannedEngine lazy = lazyEngine(a);
    EXPECT_EQ(planned(lazy, PlanBackend::kInterpreter), 0u);
    auto in = bytes("xxabcxbcabc");
    auto r = lazy.simulate(in, fullOptions());
    expectSameSemantics(nfa.simulate(in, fullOptions()), r);
    EXPECT_GT(lazy.lazyCache().states(), 0u);
    EXPECT_FALSE(lazy.lazyInterpreted());
}

TEST(LazyDfa, CounterComponentsRunOnFallback)
{
    Automaton a = counterAutomaton(3, CounterMode::kRollover, true);
    addLiteral(a, "xy", StartType::kAllInput, true, 7);
    NfaEngine nfa(a);
    PlannedEngine lazy = lazyEngine(a);
    EXPECT_EQ(planned(lazy, PlanBackend::kInterpreter), 1u);
    EXPECT_EQ(planned(lazy, PlanBackend::kLazyDfa), 1u);
    auto in = bytes("aaxyaraaaxy");
    auto r = lazy.simulate(in, fullOptions());
    expectSameSemantics(nfa.simulate(in, fullOptions()), r);
}

TEST(LazyDfa, PureCounterAutomatonHasNoLazyPart)
{
    for (auto mode : {CounterMode::kLatch, CounterMode::kPulse,
                      CounterMode::kRollover}) {
        Automaton a = counterAutomaton(2, mode, true);
        NfaEngine nfa(a);
        PlannedEngine lazy = lazyEngine(a);
        EXPECT_EQ(planned(lazy, PlanBackend::kLazyDfa), 0u);
        EXPECT_EQ(planned(lazy, PlanBackend::kInterpreter), 1u);
        auto in = bytes("aararaaaa");
        expectSameSemantics(nfa.simulate(in, fullOptions()),
                            lazy.simulate(in, fullOptions()));
    }
}

TEST(LazyDfa, LatchedCounterSuccessorsMatchInterpreter)
{
    Automaton a("c");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId c = a.addCounter(2, CounterMode::kLatch);
    ElementId z = a.addSte(CharSet::single('z'), StartType::kNone,
                           true, 5);
    a.addEdge(s, c);
    a.addEdge(c, z);
    NfaEngine nfa(a);
    PlannedEngine lazy = lazyEngine(a);
    auto in = bytes("aaxzxz");
    expectSameSemantics(nfa.simulate(in, fullOptions()),
                        lazy.simulate(in, fullOptions()));
}

/** The over-budget shape for MultiDfa: star -> long 'a' chain. Its
 *  subset space is far too large to enumerate eagerly, but skewed
 *  input keeps the *visited* state-set small: the lazy engine's
 *  target workload. */
Automaton
boundedRepeatAutomaton(int depth)
{
    Automaton a("big");
    ElementId star = addStarState(a, CharSet::all());
    ElementId prev = star;
    for (int i = 0; i < depth; ++i) {
        ElementId s = a.addSte(CharSet::single('a'));
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;
    a.element(prev).reportCode = 3;
    return a;
}

TEST(LazyDfa, TinyBudgetHandsOffMidBlockAndStaysExact)
{
    Automaton a = boundedRepeatAutomaton(24);
    NfaEngine nfa(a);
    // An absurdly small budget fills mid-block: the run hands off to
    // the interpreter there and frees the cache.
    PlannedEngine lazy = lazyEngine(a, 2048);

    Rng rng(3);
    std::vector<uint8_t> in;
    for (int i = 0; i < 4000; ++i)
        in.push_back(rng.nextBool(0.7) ? 'a' : 'b');

    auto r = lazy.simulate(in, fullOptions());
    expectSameSemantics(nfa.simulate(in.data(), in.size(),
                                     fullOptions()), r);
    EXPECT_TRUE(lazy.lazyInterpreted());
    EXPECT_GT(lazy.lazyCache().misses(), 0u) << "the DFA ran first";
    EXPECT_EQ(lazy.lazyCache().states(), 0u);
    EXPECT_EQ(r.lazyStates, 0u);
}

TEST(LazyDfa, WarmCacheSecondRunIsIdentical)
{
    Automaton a = boundedRepeatAutomaton(12);
    PlannedEngine lazy = lazyEngine(a);
    Rng rng(9);
    std::vector<uint8_t> in;
    for (int i = 0; i < 2000; ++i)
        in.push_back(rng.nextBool(0.8) ? 'a' : 'x');

    auto r1 = lazy.simulate(in, fullOptions());
    const uint64_t states = lazy.lazyCache().states();
    const uint64_t cells = lazy.lazyCache().transitions();
    auto r2 = lazy.simulate(in, fullOptions());
    // Second pass replays entirely from the warm cache: no growth,
    // same answer.
    EXPECT_EQ(lazy.lazyCache().states(), states);
    EXPECT_EQ(lazy.lazyCache().transitions(), cells);
    EXPECT_EQ(r1.reports, r2.reports);
    EXPECT_EQ(r1.totalEnabled, r2.totalEnabled);
}

TEST(LazyDfa, ReportRecordLimitCapsVectorNotCount)
{
    Automaton a("t");
    addLiteral(a, "a", StartType::kAllInput, true, 1);
    PlannedEngine lazy = lazyEngine(a);
    SimOptions opts;
    opts.reportRecordLimit = 3;
    auto r = lazy.simulate(bytes("aaaaaaaa"), opts);
    EXPECT_EQ(r.reportCount, 8u);
    EXPECT_EQ(r.reports.size(), 3u);
}

/** Random small automata: NFA and DFA engines report identically. */
class EngineEquivalence : public testing::TestWithParam<int>
{
};

TEST_P(EngineEquivalence, RandomAutomata)
{
    Rng rng(7000 + GetParam());
    Automaton a("rand");
    const int n = 3 + static_cast<int>(rng.nextBelow(14));
    for (int i = 0; i < n; ++i) {
        CharSet cs;
        const int syms = 1 + static_cast<int>(rng.nextBelow(4));
        for (int k = 0; k < syms; ++k)
            cs.set(static_cast<uint8_t>('a' + rng.nextBelow(4)));
        a.addSte(cs, static_cast<StartType>(rng.nextBelow(3)),
                 rng.nextBool(0.3),
                 static_cast<uint32_t>(rng.nextBelow(8)));
    }
    const int edges = static_cast<int>(rng.nextBelow(3 * n));
    for (int e = 0; e < edges; ++e) {
        a.addEdge(static_cast<ElementId>(rng.nextBelow(n)),
                  static_cast<ElementId>(rng.nextBelow(n)));
    }

    NfaEngine nfa(a);
    MultiDfaEngine dfa(a);
    PlannedEngine lazy = lazyEngine(a);
    PlannedEngine tiny = lazyEngine(a, 1); // hands off at its first miss
    for (int trial = 0; trial < 5; ++trial) {
        std::string text = rng.randomString(1 + rng.nextBelow(80),
                                            "abcd");
        auto in = bytes(text);
        auto ref = nfa.simulate(in, fullOptions());
        const SimResult viaDfa = dfa.simulate(in, fullOptions());
        ASSERT_EQ(sortedReports(ref), viaDfa.reports)
            << "input '" << text << "'";
        // totalEnabled is engine-defined for the multi-DFA engine.
        EXPECT_EQ(ref.reportCount, viaDfa.reportCount);
        EXPECT_EQ(ref.reportingCycles, viaDfa.reportingCycles);
        EXPECT_EQ(ref.byCode, viaDfa.byCode);
        expectSameSemantics(ref, lazy.simulate(in, fullOptions()));
        expectSameSemantics(ref, tiny.simulate(in, fullOptions()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         testing::Range(0, 40));

TEST(EngineSelector, NamesRoundTripThroughTheOneParser)
{
    for (EngineKind k : {EngineKind::kNfa, EngineKind::kMultiDfa,
                         EngineKind::kLazyDfa, EngineKind::kAuto}) {
        const Expected<EngineKind> p = parseEngine(engineName(k));
        ASSERT_TRUE(p.ok()) << engineName(k);
        EXPECT_EQ(*p, k);
    }
    const Expected<EngineKind> dfa = parseEngine("dfa");
    ASSERT_TRUE(dfa.ok());
    EXPECT_EQ(*dfa, EngineKind::kMultiDfa);

    // An unknown name is an error that lists every name.
    const Expected<EngineKind> bad = parseEngine("bogus");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
    for (const char *n : {"bogus", "nfa", "multidfa", "dfa", "lazydfa",
                          "auto"})
        EXPECT_NE(bad.status().message().find(n), std::string::npos)
            << n;

    // A consumer's own set: other names are rejected by name, and
    // the message lists only what it runs.
    const Expected<EngineKind> lazy =
        parseEngine("lazydfa", {EngineKind::kNfa, EngineKind::kAuto});
    ASSERT_FALSE(lazy.ok());
    EXPECT_EQ(lazy.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(lazy.status().message().find("'lazydfa'"),
              std::string::npos);
    EXPECT_NE(lazy.status().message().find("nfa|auto"),
              std::string::npos);
    const Expected<EngineKind> autoKind =
        parseEngine("auto", {EngineKind::kNfa, EngineKind::kAuto});
    ASSERT_TRUE(autoKind.ok());
    EXPECT_EQ(*autoKind, EngineKind::kAuto);
}

TEST(SpatialModel, PassesAndUtilization)
{
    SpatialArch arch;
    arch.name = "toy";
    arch.steCapacity = 100;
    arch.clockHz = 1e6;
    SpatialModel m(arch);
    EXPECT_EQ(m.passes(0), 1u);
    EXPECT_EQ(m.passes(100), 1u);
    EXPECT_EQ(m.passes(101), 2u);
    EXPECT_EQ(m.passes(1000), 10u);
    EXPECT_DOUBLE_EQ(m.utilization(100), 1.0);
    EXPECT_DOUBLE_EQ(m.utilization(150), 0.5);
}

TEST(SpatialModel, ThroughputScalesWithPassesAndReports)
{
    SpatialArch arch;
    arch.steCapacity = 100;
    arch.clockHz = 1e6;
    arch.reportStallCycles = 4;
    SpatialModel m(arch);
    EXPECT_DOUBLE_EQ(m.symbolsPerSecond(100, 0.0), 1e6);
    EXPECT_DOUBLE_EQ(m.symbolsPerSecond(200, 0.0), 0.5e6);
    // 0.25 reports/symbol * 4 stall cycles = 2 cycles/symbol.
    EXPECT_DOUBLE_EQ(m.symbolsPerSecond(100, 0.25), 0.5e6);
    EXPECT_DOUBLE_EQ(m.itemsPerSecond(100, 0.0, 100), 1e4);
}

TEST(SpatialModel, PresetsAreOrdered)
{
    // The FPGA preset outruns the AP on the same automaton, as in
    // the paper's narrative about modern baselines.
    SpatialModel ap(SpatialArch::apD480());
    SpatialModel fpga(SpatialArch::reaprKintex());
    EXPECT_GT(fpga.symbolsPerSecond(40000, 0.001),
              ap.symbolsPerSecond(40000, 0.001));
}

} // namespace
} // namespace azoo
