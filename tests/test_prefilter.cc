/**
 * @file
 * Literal prefilter + engine planner tests.
 *
 * The contract under test is exactness: prefiltered / planned
 * execution must be bit-identical (symbols, reports in canonical
 * order, reportCount, reportingCycles, byCode, guardStatus) to the
 * unfiltered serial NfaEngine on every zoo benchmark, in block mode,
 * under chunked streaming (including literals straddling chunk
 * boundaries and zero-length feeds), through ParallelRunner, and
 * under RunGuard truncation. totalEnabled is engine-defined (skipped
 * regions contribute nothing) and is deliberately not compared on
 * planned runs. Runs in the ASan+UBSan and TSan CI legs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "core/builder.hh"
#include "engine/multidfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/prefilter.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"

namespace azoo {
namespace {

zoo::ZooConfig
tinyConfig()
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 32 * 1024;
    return cfg;
}

/** All (end, pattern) occurrences with end >= from, by brute force. */
std::vector<std::pair<uint64_t, uint32_t>>
bruteScan(const std::vector<std::string> &pats, const uint8_t *buf,
          size_t len, size_t from)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    for (uint32_t pi = 0; pi < pats.size(); ++pi) {
        const std::string &p = pats[pi];
        if (p.size() > len)
            continue;
        for (size_t s = 0; s + p.size() <= len; ++s) {
            if (std::memcmp(buf + s, p.data(), p.size()) != 0)
                continue;
            const size_t end = s + p.size() - 1;
            if (end >= from)
                out.emplace_back(end, pi);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<uint64_t, uint32_t>>
scannerScan(const LiteralScanner &sc, const uint8_t *buf, size_t len,
            size_t from)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    sc.scan(buf, len, from,
            [&](size_t end, uint32_t pi) { out.emplace_back(end, pi); });
    std::sort(out.begin(), out.end());
    return out;
}

TEST(LiteralScanner, MatchesBruteForceOnRandomText)
{
    Rng rng(1234);
    // Skewed alphabet so literals actually occur.
    auto randomText = [&](size_t n) {
        std::vector<uint8_t> t(n);
        for (auto &c : t)
            c = static_cast<uint8_t>('a' + rng.nextBelow(4));
        return t;
    };
    for (int round = 0; round < 40; ++round) {
        const size_t npat = 1 + rng.nextBelow(6);
        std::vector<std::string> pats;
        for (size_t i = 0; i < npat; ++i) {
            std::string p;
            const size_t plen = 2 + rng.nextBelow(7);
            for (size_t j = 0; j < plen; ++j)
                p += static_cast<char>('a' + rng.nextBelow(4));
            // The scanner tolerates duplicate patterns; keep them.
            pats.push_back(p);
        }
        const std::vector<uint8_t> text =
            randomText(64 + rng.nextBelow(2000));
        LiteralScanner sc(pats);
        for (size_t from :
             {size_t(0), size_t(1), text.size() / 2, text.size()}) {
            EXPECT_EQ(
                scannerScan(sc, text.data(), text.size(), from),
                bruteScan(pats, text.data(), text.size(), from))
                << "round " << round << " from " << from;
        }
    }
}

TEST(LiteralScanner, OverlappingOccurrences)
{
    // "aaaa" occurs 5 times in "aaaaaaaa" (ends 3..7): both the
    // single-pattern sweep and the Wu-Manber path must find all.
    const std::vector<uint8_t> text(8, 'a');
    for (auto pats : {std::vector<std::string>{"aaaa"},
                      std::vector<std::string>{"aaaa", "bbbb"}}) {
        LiteralScanner sc(pats);
        auto got = scannerScan(sc, text.data(), text.size(), 0);
        ASSERT_EQ(got.size(), 5u);
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].first, 3 + i);
            EXPECT_EQ(got[i].second, 0u);
        }
    }
}

TEST(LiteralScanner, FromSkipsContainedButNotStraddling)
{
    // Rolling-buffer contract: re-scanning with from = old length
    // reports occurrences that END at or past `from` even when they
    // START before it, and nothing already wholly contained.
    const std::string text = "xxhelloxx";
    LiteralScanner sc({"hello", "lox"});
    const auto *buf = reinterpret_cast<const uint8_t *>(text.data());
    auto got = scannerScan(sc, buf, text.size(), 7);
    // "hello" ends at 6 < 7 (already seen); "lox" ends at 7.
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, 7u);
    EXPECT_EQ(got[0].second, 1u);
}

/** A counter-free all-input automaton with one component per literal,
 *  reporting codes 1, 2, ... in pattern order. */
Automaton
literalAutomaton(const std::vector<std::string> &lits)
{
    Automaton a("pf-test");
    for (size_t i = 0; i < lits.size(); ++i) {
        addLiteral(a, lits[i], StartType::kAllInput, true,
                   static_cast<uint32_t>(i + 1));
    }
    return a;
}

std::vector<PrefilterPattern>
patternsFor(const std::vector<std::string> &lits)
{
    std::vector<PrefilterPattern> pats;
    for (const std::string &l : lits) {
        pats.push_back(
            {l, static_cast<uint32_t>(l.size()) + 2});
    }
    return pats;
}

std::vector<ElementId>
identityMap(const Automaton &a)
{
    std::vector<ElementId> ids(a.size());
    for (ElementId i = 0; i < a.size(); ++i)
        ids[i] = i;
    return ids;
}

/** Random text over a small alphabet with the literals planted at
 *  random positions so the windows actually engage. */
std::vector<uint8_t>
plantedInput(Rng &rng, const std::vector<std::string> &lits, size_t n)
{
    std::vector<uint8_t> in(n);
    for (auto &c : in)
        c = static_cast<uint8_t>('a' + rng.nextBelow(6));
    for (int k = 0; k < 20; ++k) {
        const std::string &l = lits[rng.nextBelow(lits.size())];
        if (l.size() >= n)
            continue;
        const size_t at = rng.nextBelow(n - l.size());
        std::copy(l.begin(), l.end(), in.begin() + at);
    }
    return in;
}

const std::vector<std::string> kLits = {"wombat", "womb", "attack",
                                        "cacc", "baobab"};

TEST(PrefilteredNfa, MatchesUnfilteredEngine)
{
    Automaton a = literalAutomaton(kLits);
    NfaEngine plain(a);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(kLits));

    // One chunk per round, as a block run feeds it; reset() between.
    Rng rng(99);
    PrefilteredNfa::Session sess(pf);
    for (int round = 0; round < 10; ++round) {
        std::vector<uint8_t> in =
            plantedInput(rng, kLits, 4096 + rng.nextBelow(4096));
        SimResult want = plain.simulate(in);
        canonicalizeReports(want);

        sess.reset();
        sess.feed(in.data(), in.size());
        std::vector<Report> got = sess.reports();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(sess.offset(), want.symbols);
        EXPECT_EQ(got, want.reports) << "round " << round;
        EXPECT_EQ(sess.stats().windowBytes + sess.stats().skippedBytes,
                  sess.offset());
    }
}

TEST(PrefilteredNfa, OverlappingCandidatesCoalesceExactly)
{
    // Dense overlapping hits: every position is a candidate, windows
    // must coalesce into one continuous engagement with no duplicate
    // or missing reports.
    const std::vector<std::string> lits = {"aaaa"};
    Automaton a = literalAutomaton(lits);
    NfaEngine plain(a);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(lits));

    std::vector<uint8_t> in(512, 'a');
    SimResult want = plain.simulate(in);
    canonicalizeReports(want);

    PrefilteredNfa::Session sess(pf);
    sess.feed(in.data(), in.size());
    std::vector<Report> got = sess.reports();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want.reports);
    EXPECT_EQ(sess.stats().skippedBytes, 0u);
}

/** A PlannedEngine over literalAutomaton(kLits): every component on
 *  the prefilter, so guarded block runs drive the window session. */
PlannedEngine
literalPlannedEngine()
{
    PlannedEngine e(literalAutomaton(kLits));
    EXPECT_EQ(e.plan().census(), cat("P", kLits.size()));
    return e;
}

TEST(PrefilteredNfa, GuardBudgetTruncatesLikeSerial)
{
    Automaton a = literalAutomaton(kLits);
    NfaEngine plain(a);

    Rng rng(7);
    std::vector<uint8_t> in = plantedInput(rng, kLits, 10000);

    RunGuard sg;
    sg.setSymbolBudget(3000);
    SimOptions sopts;
    sopts.guard = &sg;
    SimResult want = plain.simulate(in.data(), in.size(), sopts);
    canonicalizeReports(want);
    ASSERT_TRUE(want.truncated());
    ASSERT_EQ(want.symbols, 3072u);

    RunGuard pg;
    pg.setSymbolBudget(3000);
    SimOptions popts;
    popts.guard = &pg;
    PlannedEngine pe = literalPlannedEngine();
    const SimResult got = pe.simulate(in.data(), in.size(), popts);
    EXPECT_EQ(got.symbols, want.symbols);
    EXPECT_EQ(got.guardStatus.code(), want.guardStatus.code());
    EXPECT_EQ(got.reports, want.reports);
}

TEST(PrefilteredNfa, PreCancelledGuardConsumesNothing)
{
    std::vector<uint8_t> in(2048, 'a');

    RunGuard guard;
    guard.cancel();
    SimOptions opts;
    opts.guard = &guard;
    PlannedEngine pe = literalPlannedEngine();
    const SimResult got = pe.simulate(in.data(), in.size(), opts);
    EXPECT_EQ(got.symbols, 0u);
    EXPECT_EQ(got.guardStatus.code(), ErrorCode::kCancelled);
    EXPECT_TRUE(got.reports.empty());
}

TEST(PrefilteredNfa, SessionStraddlesChunkBoundaries)
{
    Automaton a = literalAutomaton(kLits);
    NfaEngine plain(a);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(kLits));

    Rng rng(42);
    std::vector<uint8_t> in = plantedInput(rng, kLits, 6000);
    // Guarantee a literal crossing every tested chunk boundary size.
    std::copy(kLits[0].begin(), kLits[0].end(), in.begin() + 1022);
    std::copy(kLits[2].begin(), kLits[2].end(), in.begin() + 4095);

    SimResult want = plain.simulate(in);
    canonicalizeReports(want);

    for (size_t chunk : {size_t(1), size_t(3), size_t(1024),
                         size_t(4097), in.size()}) {
        PrefilteredNfa::Session sess(pf);
        sess.feed(nullptr, 0); // zero-length feed is a no-op
        for (size_t pos = 0; pos < in.size();) {
            const size_t n = std::min(chunk, in.size() - pos);
            sess.feed(in.data() + pos, n);
            pos += n;
        }
        sess.feed(nullptr, 0);
        std::vector<Report> got = sess.reports();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want.reports) << "chunk " << chunk;
        EXPECT_EQ(sess.offset(), in.size());

        // reset() rewinds to a fresh stream.
        sess.reset();
        EXPECT_EQ(sess.offset(), 0u);
        sess.feed(in.data(), in.size());
        got = sess.reports();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want.reports) << "after reset";
    }
}

TEST(PrefilteredNfa, LowWaterBoundsLaterReports)
{
    // No feed reports below the low-water mark set before it, the
    // mark trails the position by at most keepBytes(), and reports
    // taken below it come out as the prefix they are.
    Automaton a = literalAutomaton(kLits);
    PrefilteredNfa pf(a, identityMap(a), patternsFor(kLits));
    Rng rng(5);
    std::vector<uint8_t> in = plantedInput(rng, kLits, 20000);
    PrefilteredNfa::Session whole(pf);
    whole.feed(in.data(), in.size());

    PrefilteredNfa::Session sess(pf);
    std::vector<Report> taken;
    for (size_t pos = 0; pos < in.size();) {
        const size_t n = std::min<size_t>(1 + rng.nextBelow(300),
                                          in.size() - pos);
        const uint64_t mark = sess.lowWater();
        const size_t before = sess.reports().size();
        sess.feed(in.data() + pos, n);
        pos += n;
        for (size_t k = before; k < sess.reports().size(); ++k)
            EXPECT_GE(sess.reports()[k].offset, mark);
        EXPECT_LE(sess.offset() - sess.lowWater(), pf.keepBytes());
        sess.takeReports(sess.lowWater(), taken);
        for (const Report &r : sess.reports())
            EXPECT_GE(r.offset, sess.lowWater());
    }
    sess.takeReports(sess.offset(), taken);
    EXPECT_TRUE(sess.reports().empty());
    EXPECT_EQ(taken, whole.reports());
}

/** Compare a planned result against a canonicalized serial result on
 *  the semantic fields (totalEnabled is engine-defined). */
void
expectSemanticallyEqual(const SimResult &got, const SimResult &want,
                        const std::string &label)
{
    EXPECT_EQ(got.symbols, want.symbols) << label;
    EXPECT_EQ(got.reportCount, want.reportCount) << label;
    EXPECT_EQ(got.reportingCycles, want.reportingCycles) << label;
    EXPECT_EQ(got.byCode, want.byCode) << label;
    EXPECT_EQ(got.reports, want.reports) << label;
    EXPECT_EQ(got.guardStatus.code(), want.guardStatus.code()) << label;
}

class PlannedVsSerial : public testing::TestWithParam<std::string>
{
};

TEST_P(PlannedVsSerial, BlockModeBitIdentical)
{
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    NfaEngine serial(b.automaton);
    SimResult want = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(want);

    PlannedEngine on(b.automaton);
    expectSemanticallyEqual(on.simulate(b.input.data(), simLen, sim),
                            want, "prefilter on");

    PlanOptions off;
    off.enablePrefilter = false;
    PlannedEngine noPf(b.automaton, off);
    EXPECT_EQ(noPf.prefilterPatterns(), 0u);
    expectSemanticallyEqual(noPf.simulate(b.input.data(), simLen, sim),
                            want, "prefilter off");
}

TEST_P(PlannedVsSerial, ChunkedSessionBitIdentical)
{
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    NfaEngine serial(b.automaton);
    SimResult want = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(want);

    // One program under every chunking: 1-byte feeds, two fixed
    // sizes and a seeded random chunking (0 = random, 1..4096 bytes),
    // so the lazy-DFA cursor, its hand-off and the interpreter
    // cursors all cross feed boundaries everywhere.
    const auto program = std::make_shared<const PlannedProgram>(
        b.automaton, analysis::inferProfiles(b.automaton));
    for (size_t chunk :
         {size_t(1), size_t(1024), size_t(4097), size_t(0)}) {
        PlannedSession sess(program);
        sess.options = sim;
        Rng rng(17);
        for (size_t pos = 0; pos < simLen;) {
            const size_t step = chunk ? chunk : 1 + rng.nextBelow(4096);
            const size_t n = std::min(step, simLen - pos);
            ASSERT_EQ(sess.feed(b.input.data() + pos, n), n);
            pos += n;
        }
        expectSemanticallyEqual(sess.results(), want,
                                chunk ? cat("chunk ", chunk)
                                      : std::string("random chunks"));
    }
}

TEST_P(PlannedVsSerial, GuardBudgetBitIdentical)
{
    zoo::Benchmark b = zoo::makeBenchmark(GetParam(), tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    RunGuard sg;
    sg.setSymbolBudget(3000);
    SimOptions sim;
    sim.countByCode = true;
    sim.guard = &sg;
    NfaEngine serial(b.automaton);
    SimResult want = serial.simulate(b.input.data(), simLen, sim);
    canonicalizeReports(want);
    ASSERT_TRUE(want.truncated());

    RunGuard pg;
    pg.setSymbolBudget(3000);
    SimOptions psim = sim;
    psim.guard = &pg;
    PlannedEngine planned(b.automaton);
    expectSemanticallyEqual(
        planned.simulate(b.input.data(), simLen, psim), want, "block");

    // Same budget through the chunked session: the poll clock runs on
    // stream offsets, so truncation lands on the same prefix.
    RunGuard cg;
    cg.setSymbolBudget(3000);
    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(b.automaton);
    PlannedSession sess(b.automaton, profiles);
    sess.options = sim;
    sess.options.guard = &cg;
    for (size_t pos = 0; pos < simLen;) {
        const size_t n = std::min<size_t>(777, simLen - pos);
        const size_t got = sess.feed(b.input.data() + pos, n);
        pos += got;
        if (got < n)
            break;
    }
    EXPECT_TRUE(sess.stopped());
    expectSemanticallyEqual(sess.results(), want, "chunked");
}

INSTANTIATE_TEST_SUITE_P(AllZoo, PlannedVsSerial,
                         testing::ValuesIn([] {
                             std::vector<std::string> names;
                             for (const auto &info :
                                  zoo::allBenchmarks())
                                 names.push_back(info.name);
                             return names;
                         }()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

TEST(PlannedSession, RecordLimitSettlesExactly)
{
    // Reports settle every kSettleBytes of a feed, below the
    // prefilter's low-water mark when there is one: a capped run must
    // still count every report and keep the first canonical ones,
    // across settles inside one block and across chunked feeds, under
    // auto's plan and lazydfa's. The rows cover a lone DFA (AP PRNG),
    // the prefilter beside the DFA and the interpreter (Snort,
    // ClamAV), a hand-off (Random Forest A) and counters (Seq. Match
    // wC).
    for (const char *name : {"AP PRNG 8-sided", "Snort", "ClamAV",
                             "Random Forest A", "Seq. Match 6w 6p wC"}) {
        SCOPED_TRACE(name);
        zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());
        std::vector<uint8_t> in;
        for (int i = 0; i < 3; ++i)
            in.insert(in.end(), b.input.begin(), b.input.end());
        ASSERT_GT(in.size(), PlannedSession::kSettleBytes);

        SimOptions all;
        all.countByCode = true;
        SimResult want = NfaEngine(b.automaton).simulate(in, all);
        canonicalizeReports(want);
        SimOptions capped = all;
        capped.reportRecordLimit = 100;
        if (want.reports.size() > capped.reportRecordLimit)
            want.reports.resize(capped.reportRecordLimit);
        SimOptions counted = all;
        counted.recordReports = false;
        SimResult wantCounted = want;
        wantCounted.reports.clear();

        for (EngineKind kind : {EngineKind::kAuto, EngineKind::kLazyDfa}) {
            const auto program = compileProgram(kind, b.automaton);
            PlannedEngine block(program);
            expectSemanticallyEqual(block.simulate(in, capped), want,
                                    cat(engineName(kind), " block"));
            expectSemanticallyEqual(
                block.simulate(in, counted), wantCounted,
                cat(engineName(kind), " block, counted"));
            PlannedSession sess(program);
            sess.options = capped;
            for (size_t pos = 0; pos < in.size(); pos += 5000) {
                sess.feed(in.data() + pos,
                          std::min<size_t>(5000, in.size() - pos));
            }
            expectSemanticallyEqual(sess.results(), want,
                                    cat(engineName(kind), " chunked"));
        }
    }
}


// ---------------------------------------------------------------
// The streamed lazy-DFA group: a cursor over a session-owned cache
// that hands the run to the interpreter when the cache would outgrow
// the scratch it stands in for.

/** Serial NfaEngine reference over the first @p len input bytes. */
SimResult
serialReference(const zoo::Benchmark &b, size_t len, const SimOptions &sim)
{
    SimResult r = NfaEngine(b.automaton).simulate(b.input.data(), len, sim);
    canonicalizeReports(r);
    return r;
}

uint64_t
handoffCount()
{
    return obs::Registry::global().counterValue("engine.lazy.handoffs");
}

TEST(LazyHandoff, ApPrngSessionStaysOnTheDfa)
{
    zoo::Benchmark b = zoo::makeBenchmark("AP PRNG 8-sided", tinyConfig());
    SimOptions sim;
    sim.countByCode = true;
    const SimResult want = serialReference(b, b.input.size(), sim);

    PlannedSession sess(b.automaton);
    ASSERT_GT(sess.plan().backendCount[static_cast<size_t>(
                  PlanBackend::kLazyDfa)],
              0u);
    sess.options = sim;
    const uint64_t handoffs = handoffCount();
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(pass);
        const uint64_t misses = sess.lazyCache().misses();
        feedChunks(b.input.data(), b.input.size(), 4096,
                   [&](const uint8_t *p, size_t n) {
                       return sess.feed(p, n);
                   });
        EXPECT_FALSE(sess.lazyInterpreted());
        EXPECT_GT(sess.lazyCache().hits(), 0u);
        if (pass == 1) {
            // The cache survived reset(): the same stream replays
            // from it without computing a transition.
            EXPECT_EQ(sess.lazyCache().misses(), misses);
        }
        expectSemanticallyEqual(sess.results(), want, "stream");
        sess.reset();
    }
    if (obs::kEnabled) {
        EXPECT_EQ(handoffCount(), handoffs);
    }
}

TEST(LazyHandoff, RandomForestHandsOffMidStreamAndStaysExact)
{
    zoo::Benchmark b = zoo::makeBenchmark("Random Forest A", tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);
    SimOptions sim;
    sim.countByCode = true;
    const auto program = std::make_shared<const PlannedProgram>(
        b.automaton, analysis::inferProfiles(b.automaton));

    // Byte-at-a-time: find where the hand-off happens.
    PlannedSession sess(program);
    sess.options = sim;
    const uint64_t handoffs = handoffCount();
    size_t handoffAt = 0;
    for (size_t pos = 0; pos < simLen; ++pos) {
        ASSERT_EQ(sess.feed(b.input.data() + pos, 1), 1u);
        if (!handoffAt && sess.lazyInterpreted())
            handoffAt = pos;
    }
    ASSERT_GT(handoffAt, 0u) << "the group must start on the DFA";
    ASSERT_LT(handoffAt, 3000u) << "and leave it before the guard stop";
    EXPECT_GT(sess.lazyCache().hits() + sess.lazyCache().misses(), 0u);
    if (obs::kEnabled) {
        EXPECT_EQ(handoffCount(), handoffs + 1);
    }
    expectSemanticallyEqual(sess.results(),
                            serialReference(b, simLen, sim), "no guard");

    // A 3,000-symbol budget stops at the 3072 poll point, after the
    // hand-off: the prefix is exact across both backends.
    RunGuard sg;
    sg.setSymbolBudget(3000);
    SimOptions gsim = sim;
    gsim.guard = &sg;
    const SimResult cut = serialReference(b, simLen, gsim);
    ASSERT_TRUE(cut.truncated());
    RunGuard cg;
    cg.setSymbolBudget(3000);
    PlannedSession guarded(program);
    guarded.options = sim;
    guarded.options.guard = &cg;
    feedChunks(b.input.data(), simLen, 777,
               [&](const uint8_t *p, size_t n) {
                   return guarded.feed(p, n);
               });
    EXPECT_TRUE(guarded.stopped());
    EXPECT_TRUE(guarded.lazyInterpreted());
    expectSemanticallyEqual(guarded.results(), cut, "guard stop");

    // A handed-off session keeps interpreting after reset().
    guarded.reset();
    guarded.options.guard = nullptr;
    EXPECT_TRUE(guarded.lazyInterpreted());
    EXPECT_EQ(guarded.feed(b.input.data(), simLen), simLen);
    expectSemanticallyEqual(guarded.results(),
                            serialReference(b, simLen, sim), "after reset");
}

TEST(LazyHandoff, InterpreterStateCrossesTheHandoff)
{
    // A lazy-DFA group whose cache overflows once 'b's arrive (a star
    // feeding an a/b chain: nearly every offset's phase is a new
    // state-set) beside interpreted components that are mid-match and
    // mid-count then: the hand-off must carry the interpreter group's
    // enabled set, counter values and latches into the merged cursor.
    Automaton a("handoff");
    ElementId prev = addStarState(a, CharSet::all());
    for (int i = 0; i < 16; ++i) {
        const ElementId s = a.addSte(CharSet::single(i % 3 ? 'a' : 'b'));
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;
    a.element(prev).reportCode = 1;
    // An acyclic window (no scan literal): many runs in flight.
    prev = a.addSte(CharSet::single('a'), StartType::kAllInput);
    for (int i = 0; i < 7; ++i) {
        CharSet ab = CharSet::single('a');
        ab.set('b');
        const ElementId s = a.addSte(ab);
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;
    a.element(prev).reportCode = 2;
    uint32_t code = 10;
    for (CounterMode mode : {CounterMode::kLatch, CounterMode::kRollover,
                             CounterMode::kPulse}) {
        const ElementId s =
            a.addSte(CharSet::single('a'), StartType::kAllInput);
        const ElementId c = a.addCounter(5, mode, true, code++);
        const ElementId z =
            a.addSte(CharSet::single('b'), StartType::kNone, true, code++);
        const ElementId r =
            a.addSte(CharSet::single('x'), StartType::kAllInput);
        a.addEdge(s, c);
        a.addEdge(c, z);
        a.addResetEdge(r, c);
    }
    const auto program = std::make_shared<const PlannedProgram>(
        a, analysis::inferProfiles(a));
    ASSERT_EQ(program->plan().census(), "D1/I4");

    // No 'b' in the first kCalm bytes keeps the DFA in one state-set
    // while the counters count, latch and reset; the 'b's after it
    // overflow the cache at a seed-dependent offset.
    constexpr size_t kCalm = 600;
    SimOptions sim;
    sim.countByCode = true;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::vector<uint8_t> in(2048);
        for (size_t i = 0; i < in.size(); ++i) {
            in[i] = i < kCalm ? "aaaacx"[rng.nextBelow(6)]
                              : "aaaabbbbaaabbbx"[rng.nextBelow(15)];
        }
        SimResult want = NfaEngine(a).simulate(in, sim);
        canonicalizeReports(want);

        PlannedSession sess(program);
        sess.options = sim;
        ASSERT_EQ(sess.feed(in.data(), kCalm), kCalm);
        ASSERT_FALSE(sess.lazyInterpreted());
        for (size_t pos = kCalm; pos < in.size();) {
            const size_t n =
                std::min<size_t>(1 + rng.nextBelow(64), in.size() - pos);
            ASSERT_EQ(sess.feed(in.data() + pos, n), n);
            pos += n;
        }
        EXPECT_TRUE(sess.lazyInterpreted());
        expectSemanticallyEqual(sess.results(), want, "stream");
    }
}

TEST(LazyHandoff, BlockRunsHandOffAtTheirBudget)
{
    // A block run's cache hands off at PlanOptions::lazyCacheBytes as
    // a stream's does at its smaller budget. At the default budget
    // the warm block rows stay on the DFA pass after pass.
    SimOptions sim;
    sim.countByCode = true;
    zoo::ZooConfig snort = tinyConfig();
    snort.scale = 0.05; // the serve-snort row's shape
    snort.inputBytes = 256 * 1024;
    for (const auto &[name, cfg] :
         {std::pair{"Snort", snort}, std::pair{"Brill", tinyConfig()},
          std::pair{"AP PRNG 8-sided", tinyConfig()}}) {
        SCOPED_TRACE(name);
        zoo::Benchmark b = zoo::makeBenchmark(name, cfg);
        PlannedEngine e(b.automaton);
        ASSERT_GT(e.plan().backendCount[static_cast<size_t>(
                      PlanBackend::kLazyDfa)],
                  0u);
        const SimResult want = serialReference(b, b.input.size(), sim);
        const uint64_t handoffs = handoffCount();
        for (int pass = 1; pass <= 3; ++pass) {
            const SimResult got = e.simulate(b.input, sim);
            EXPECT_FALSE(e.lazyInterpreted()) << "pass " << pass;
            EXPECT_GT(got.lazyStates, 0u) << "the DFA must run";
            expectSemanticallyEqual(got, want, cat("block pass ", pass));
        }
        if (obs::kEnabled) {
            EXPECT_EQ(handoffCount(), handoffs);
        }
    }

    // Random Forest A outgrows a 64 KiB cache in its first pass: the
    // run hands off mid-input, exactly, the cache is freed, and later
    // passes interpret from the start.
    zoo::Benchmark b = zoo::makeBenchmark("Random Forest A", tinyConfig());
    PlanOptions small;
    small.lazyCacheBytes = 64 * 1024;
    PlannedEngine e(b.automaton, small);
    const SimResult want = serialReference(b, b.input.size(), sim);
    const uint64_t handoffs = handoffCount();
    for (int pass = 1; pass <= 3; ++pass) {
        const SimResult got = e.simulate(b.input, sim);
        EXPECT_TRUE(e.lazyInterpreted()) << "pass " << pass;
        expectSemanticallyEqual(got, want, cat("block pass ", pass));
        if (pass == 1) {
            EXPECT_GT(e.lazyCache().misses(), 0u) << "the DFA ran first";
            EXPECT_EQ(e.lazyCache().states(), 0u);
            EXPECT_EQ(e.lazyCache().bytesUsed(), 0u);
        }
    }
    if (obs::kEnabled) {
        EXPECT_EQ(handoffCount(), handoffs + 1);
    }
}

TEST(LazyHandoff, InterpreterGroupRunsOnTheRestTables)
{
    // The interpreter group runs beside the DFA on the rest engine's
    // own tables, entered only above the DFA's ids: a program with all
    // three groups compiles two interpreters (the prefilter group's and
    // the rest engine) and adopts no artifact image.
    if (!obs::kEnabled)
        GTEST_SKIP() << "AZOO_OBS=OFF: counters compiled out";
    zoo::ZooConfig cfg = tinyConfig();
    cfg.scale = 0.02; // the smallest Snort with a scan literal
    zoo::Benchmark b = zoo::makeBenchmark("Snort", cfg);
    const auto profiles = analysis::inferProfiles(b.automaton);
    obs::Registry &reg = obs::Registry::global();
    const uint64_t compiles = reg.counterValue("engine.nfa.compiles");
    const uint64_t adoptions =
        reg.counterValue("engine.nfa.image_adoptions");
    const auto program = compileProgram(EngineKind::kAuto, b.automaton,
                                        PlanOptions(), profiles);
    for (PlanBackend g : {PlanBackend::kPrefilter, PlanBackend::kLazyDfa,
                          PlanBackend::kInterpreter}) {
        ASSERT_GT(program->plan().backendCount[static_cast<size_t>(g)], 0u)
            << planBackendName(g);
    }
    EXPECT_EQ(reg.counterValue("engine.nfa.compiles") - compiles, 2u);
    EXPECT_EQ(reg.counterValue("engine.nfa.image_adoptions"), adoptions);

    SimOptions sim;
    sim.countByCode = true;
    PlannedSession sess(program);
    sess.options = sim;
    feedChunks(b.input.data(), b.input.size(), 1000,
               [&](const uint8_t *p, size_t n) { return sess.feed(p, n); });
    expectSemanticallyEqual(sess.results(),
                            serialReference(b, b.input.size(), sim),
                            "stream");
}

TEST(PlannedEngine, LiteralZooBenchmarksActuallyPrefilter)
{
    // The planner must route the literal-dominated DPI benchmarks to
    // the prefilter backend — otherwise the perf story silently
    // degrades to the interpreter while all equivalence tests pass.
    for (const char *name : {"ClamAV", "YARA"}) {
        zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());
        PlannedEngine e(b.automaton);
        EXPECT_GT(e.prefilterPatterns(), 0u) << name;
        const auto &counts = e.plan().backendCount;
        EXPECT_EQ(counts[static_cast<size_t>(PlanBackend::kPrefilter)],
                  e.plan().decisions.size())
            << name << ": expected every component on the prefilter";
        const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);
        e.simulate(b.input.data(), simLen);
        EXPECT_GT(e.lastPrefilterStats().skippedBytes, simLen / 2)
            << name;
    }
    // Counter-coupled components must stay on the exact interpreter.
    zoo::Benchmark wc =
        zoo::makeBenchmark("Seq. Match 6w 6p wC", tinyConfig());
    PlannedEngine e(wc.automaton);
    EXPECT_GT(
        e.plan()
            .backendCount[static_cast<size_t>(PlanBackend::kInterpreter)],
        0u);
}

TEST(PlannedEngine, AnchoredComponentsInterpret)
{
    // An anchored bounded chain beside literal chains: the chain is
    // planned onto the interpreter, the literals onto the prefilter,
    // and the mixed plan still equals serial.
    Automaton a = literalAutomaton(kLits);
    addLiteral(a, "abc", StartType::kStartOfData, true, 99);
    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(a);
    PlannedEngine e(a, profiles);
    size_t anchored = 0;
    for (const ComponentDecision &d : e.plan().decisions) {
        if (!profiles[d.componentId].anchored)
            continue;
        ++anchored;
        EXPECT_EQ(d.backend, PlanBackend::kInterpreter);
    }
    EXPECT_EQ(anchored, 1u);
    EXPECT_GT(e.prefilterPatterns(), 0u);

    Rng rng(5);
    std::vector<uint8_t> in = plantedInput(rng, kLits, 8192);
    std::copy_n("abc", 3, in.begin());
    SimOptions sim;
    sim.countByCode = true;
    SimResult want = NfaEngine(a).simulate(in, sim);
    canonicalizeReports(want);
    ASSERT_EQ(want.byCode[99], 1u);
    expectSemanticallyEqual(e.simulate(in, sim), want, "anchored");
}

TEST(PlannedSession, ZeroLengthStream)
{
    zoo::Benchmark b = zoo::makeBenchmark("ClamAV", tinyConfig());
    PlannedSession sess(b.automaton);
    EXPECT_EQ(sess.feed(nullptr, 0), 0u);
    SimResult r = sess.results();
    EXPECT_EQ(r.symbols, 0u);
    EXPECT_EQ(r.reportCount, 0u);
    EXPECT_TRUE(r.guardStatus.ok());
}

TEST(ParallelPlanned, BatchShardedAndChunkedMatchSerial)
{
    for (const char *name : {"ClamAV", "Seq. Match 6w 6p wC"}) {
        zoo::Benchmark b = zoo::makeBenchmark(name, tinyConfig());
        const size_t simLen =
            std::min<size_t>(b.input.size(), 16 * 1024);

        SimOptions sim;
        sim.countByCode = true;
        NfaEngine serial(b.automaton);
        SimResult want = serial.simulate(b.input.data(), simLen, sim);
        canonicalizeReports(want);

        ParallelOptions popts;
        popts.threads = 4;
        popts.engine = EngineKind::kAuto;
        popts.sim = sim;
        ParallelRunner runner(b.automaton, popts);

        SimResult sharded =
            runner.simulateSharded(b.input.data(), simLen);
        expectSemanticallyEqual(sharded, want, cat(name, " sharded"));

        std::vector<std::vector<uint8_t>> streams;
        const size_t cuts[] = {0, 1000, 1100, 5000, 13000, simLen};
        for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
            streams.emplace_back(b.input.begin() + cuts[i],
                                 b.input.begin() + cuts[i + 1]);
        }
        BatchResult mono = runner.runBatch(streams);

        ParallelOptions chunked = popts;
        chunked.chunkBytes = 37;
        ParallelRunner chunkedRunner(b.automaton, chunked);
        BatchResult chk = chunkedRunner.runBatch(streams);

        ASSERT_TRUE(mono.allOk());
        ASSERT_TRUE(chk.allOk());
        for (size_t i = 0; i < streams.size(); ++i) {
            SimResult w = serial.simulate(streams[i], sim);
            canonicalizeReports(w);
            expectSemanticallyEqual(mono.perStream[i], w,
                                    cat(name, " stream ", i));
            expectSemanticallyEqual(chk.perStream[i], w,
                                    cat(name, " chunked stream ", i));
        }
    }
}

TEST(MultiDfaProfiles, ProfileHintsPreserveResults)
{
    zoo::Benchmark b = zoo::makeBenchmark("Snort", tinyConfig());
    const size_t simLen = std::min<size_t>(b.input.size(), 16 * 1024);

    SimOptions sim;
    sim.countByCode = true;
    MultiDfaEngine plainEngine(b.automaton);
    SimResult want =
        plainEngine.simulate(b.input.data(), simLen, sim);

    const std::vector<analysis::ComponentProfile> profiles =
        analysis::inferProfiles(b.automaton);
    MultiDfaOptions mo;
    mo.profiles = &profiles;
    MultiDfaEngine hinted(b.automaton, mo);
    SimResult got = hinted.simulate(b.input.data(), simLen, sim);

    // The hint can move a component between the eager-DFA and
    // fallback executors, which changes same-cycle emission order;
    // compare canonically.
    canonicalizeReports(want);
    canonicalizeReports(got);
    EXPECT_EQ(got.reportCount, want.reportCount);
    EXPECT_EQ(got.byCode, want.byCode);
    EXPECT_EQ(got.reports, want.reports);
    // The hint only redirects components; every component still runs.
    EXPECT_EQ(hinted.compiledComponents() + hinted.fallbackComponents(),
              plainEngine.compiledComponents() +
                  plainEngine.fallbackComponents());
}

} // namespace
} // namespace azoo
