/**
 * @file
 * Session-cursor tests: a PlannedSession fed in chunks is equivalent
 * to monolithic simulation for arbitrary chunkings, including
 * single-byte feeds, counter state across boundaries, guard stops at
 * stream poll points, reset semantics, and cursors on different
 * threads over one shared program. Most run the `--engine nfa`
 * program (compileProgram(EngineKind::kNfa): every component on one
 * interpreter cursor); reset reuse and guard-stop counting run every
 * planned kind. Run under -fsanitize=thread in CI.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/builder.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/fault.hh"
#include "regex/glushkov.hh"
#include "regex/parser.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"
#include "zoo/seqmatch.hh"

namespace azoo {
namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** A cursor over @p a's `--engine nfa` program. */
PlannedSession
nfaSession(const Automaton &a)
{
    return PlannedSession(compileProgram(EngineKind::kNfa, a));
}

/** Canonicalized copy (sorted reports) for order-independent
 *  comparison. */
SimResult
canon(SimResult r)
{
    canonicalizeReports(r);
    return r;
}

TEST(Streaming, MatchStraddlesChunkBoundary)
{
    Automaton a("t");
    addLiteral(a, "abcd", StartType::kAllInput, true, 1);
    PlannedSession sess = nfaSession(a);
    sess.feed(bytes("xxab"));
    EXPECT_EQ(sess.results().reportCount, 0u);
    sess.feed(bytes("cdxx"));
    ASSERT_EQ(sess.results().reportCount, 1u);
    EXPECT_EQ(sess.results().reports[0].offset, 5u);
}

TEST(Streaming, OffsetsAreAbsolute)
{
    Automaton a("t");
    addLiteral(a, "z", StartType::kAllInput, true, 1);
    PlannedSession sess = nfaSession(a);
    for (int chunk = 0; chunk < 5; ++chunk)
        sess.feed(bytes("xyz"));
    ASSERT_EQ(sess.results().reportCount, 5u);
    EXPECT_EQ(sess.results().reports[4].offset, 14u);
    EXPECT_EQ(sess.offset(), 15u);
}

TEST(Streaming, StartOfDataOnlyAtStreamStart)
{
    Automaton a("t");
    addLiteral(a, "ab", StartType::kStartOfData, true, 1);
    PlannedSession sess = nfaSession(a);
    sess.feed(bytes("a"));
    sess.feed(bytes("b"));
    EXPECT_EQ(sess.results().reportCount, 1u);
    sess.feed(bytes("ab")); // not at stream start anymore
    EXPECT_EQ(sess.results().reportCount, 1u);
    sess.reset();
    sess.feed(bytes("ab"));
    EXPECT_EQ(sess.results().reportCount, 1u);
}

TEST(Streaming, CounterStatePersistsAcrossChunks)
{
    Automaton a("t");
    ElementId s = a.addSte(CharSet::single('a'), StartType::kAllInput);
    ElementId c = a.addCounter(3, CounterMode::kLatch, true, 9);
    a.addEdge(s, c);
    PlannedSession sess = nfaSession(a);
    sess.feed(bytes("a"));
    sess.feed(bytes("a"));
    EXPECT_EQ(sess.results().reportCount, 0u);
    sess.feed(bytes("a"));
    EXPECT_EQ(sess.results().reportCount, 1u);
}

/** Property: any chunking equals monolithic simulation. */
class StreamingProperty : public testing::TestWithParam<int>
{
};

TEST_P(StreamingProperty, ChunkingInvariance)
{
    Rng rng(31000 + GetParam());
    static const char *kPatterns[] = {"ab+c", "a(b|c)d", "x[ab]{2,4}y",
                                      "a.b"};
    Automaton a("t");
    for (int i = 0; i < 3; ++i) {
        appendRegex(
            a,
            parseRegexOrDie(kPatterns[rng.nextBelow(std::size(kPatterns))]),
            static_cast<uint32_t>(i));
    }
    // Mix in a counter component.
    zoo::SeqMatchParams sp;
    sp.itemsetSize = 2;
    sp.filterWidth = 3;
    sp.withCounters = true;
    sp.supportThreshold = 2;
    zoo::appendSeqFilter(a, {'b', 'x'}, sp, 7);

    const std::string text =
        rng.randomString(200, "abcxy") + "\xff" + "bx\xff" + "bx\xff" +
        rng.randomString(50, "abcxy");
    const auto in = bytes(text);

    NfaEngine mono(a);
    SimOptions opts;
    opts.countByCode = true;
    const SimResult expect = canon(mono.simulate(in, opts));

    PlannedSession sess = nfaSession(a);
    sess.options.countByCode = true;
    size_t pos = 0;
    while (pos < in.size()) {
        const size_t chunk =
            std::min<size_t>(1 + rng.nextBelow(17), in.size() - pos);
        sess.feed(in.data() + pos, chunk);
        pos += chunk;
    }
    EXPECT_EQ(sess.results().reportCount, expect.reportCount);
    EXPECT_EQ(sess.results().reports, expect.reports);
    EXPECT_EQ(sess.results().totalEnabled, expect.totalEnabled);
    EXPECT_EQ(sess.results().reportingCycles, expect.reportingCycles);
    EXPECT_EQ(sess.results().symbols, expect.symbols);
    EXPECT_EQ(sess.results().byCode, expect.byCode);

    // Byte-at-a-time feeding too.
    PlannedSession one = nfaSession(a);
    for (auto b : in)
        one.feed(&b, 1);
    EXPECT_EQ(one.results().reports, expect.reports);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingProperty,
                         testing::Range(0, 20));

// ---------------------------------------------------------------
// Guard semantics under chunking. The guard is polled at multiples
// of kGuardCheckIntervalSymbols of *stream* position, so a chunked
// session with a symbol budget must stop at exactly the same prefix
// as a monolithic guarded run — and report exactly the same results.

/** 'z' reporter plus input with a 'z' every 7 bytes. */
Automaton
guardAutomaton()
{
    Automaton a("g");
    addLiteral(a, "z", StartType::kAllInput, true, 1);
    return a;
}

std::vector<uint8_t>
guardInput(size_t n)
{
    std::vector<uint8_t> in(n, 'x');
    for (size_t i = 0; i < n; i += 7)
        in[i] = 'z';
    return in;
}

TEST(StreamingGuard, BudgetStopsMidChunkAndMatchesSerial)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(10000);

    RunGuard guard;
    guard.setSymbolBudget(3000);

    PlannedSession sess = nfaSession(a);
    sess.options.guard = &guard;
    size_t consumed = 0;
    // 512-byte chunks: the stop point (a multiple of 1024) falls
    // mid-stream, so some feed must return short.
    bool sawShortFeed = false;
    for (size_t pos = 0; pos < in.size();) {
        const size_t want = std::min<size_t>(512, in.size() - pos);
        const size_t got = sess.feed(in.data() + pos, want);
        consumed += got;
        pos += got;
        if (got < want) {
            sawShortFeed = true;
            break;
        }
    }
    EXPECT_TRUE(sawShortFeed);
    EXPECT_TRUE(sess.stopped());
    const SimResult r = sess.results();
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kLimitExceeded);
    EXPECT_TRUE(r.truncated());
    EXPECT_EQ(r.symbols, consumed);
    // Budget 3000 stops at the first poll point >= 3000.
    EXPECT_EQ(consumed, 3072u);

    // A monolithic guarded NFA run must agree exactly.
    RunGuard guard2;
    guard2.setSymbolBudget(3000);
    SimOptions sopts;
    sopts.guard = &guard2;
    NfaEngine engine(a);
    SimResult serial = engine.simulate(in.data(), in.size(), sopts);
    EXPECT_EQ(r.symbols, serial.symbols);
    EXPECT_EQ(r.reportCount, serial.reportCount);
    EXPECT_EQ(r.reports, canon(serial).reports);
    EXPECT_EQ(r.totalEnabled, serial.totalEnabled);
}

TEST(StreamingGuard, StoppedSessionRefusesFeedUntilReset)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(4096);

    RunGuard guard;
    guard.setSymbolBudget(1000);
    PlannedSession sess = nfaSession(a);
    sess.options.guard = &guard;
    EXPECT_LT(sess.feed(in), in.size());
    ASSERT_TRUE(sess.stopped());
    const uint64_t symbolsAtStop = sess.results().symbols;

    // Further feeds consume nothing and change nothing.
    EXPECT_EQ(sess.feed(in), 0u);
    EXPECT_EQ(sess.results().symbols, symbolsAtStop);

    // reset() clears the stop; with the guard removed the stream
    // runs to completion.
    sess.reset();
    EXPECT_FALSE(sess.stopped());
    sess.options.guard = nullptr;
    EXPECT_EQ(sess.feed(in), in.size());
    EXPECT_FALSE(sess.results().truncated());
    EXPECT_EQ(sess.results().symbols, in.size());
}

TEST(StreamingGuard, CancelledGuardStopsAtFirstPoll)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(2048);

    RunGuard guard;
    guard.cancel(); // already raised before the first check
    PlannedSession sess = nfaSession(a);
    sess.options.guard = &guard;
    EXPECT_EQ(sess.feed(in), 0u); // poll at t=0 fires before any byte
    EXPECT_TRUE(sess.stopped());
    EXPECT_EQ(sess.results().guardStatus.code(),
              ErrorCode::kCancelled);
    EXPECT_EQ(sess.results().symbols, 0u);
    EXPECT_EQ(sess.results().reportCount, 0u);
}

TEST(StreamingGuard, InjectedExpiryTruncatesAtPollBoundary)
{
    struct FaultScope {
        ~FaultScope() { fault::disarmAll(); }
    } scope;

    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(8192);

    RunGuard guard; // no limits: only the injected fault can fire
    PlannedSession sess = nfaSession(a);
    sess.options.guard = &guard;
    // Skip the t=0 poll, fire on the second check (t=1024).
    fault::armAfter(fault::Point::kGuardExpiry, 1);
    const size_t got = sess.feed(in);
    EXPECT_EQ(got, kGuardCheckIntervalSymbols);
    EXPECT_TRUE(sess.stopped());
    const SimResult r = sess.results();
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(r.symbols, kGuardCheckIntervalSymbols);
    // Results cover exactly the consumed prefix: one 'z' per 7 bytes.
    EXPECT_EQ(r.reportCount, (kGuardCheckIntervalSymbols + 6) / 7);
}

TEST(StreamingGuard, EveryPlannedKindCountsItsStop)
{
    // One engine.planned.guard_stops.<code> per stopped session, on
    // each planned kind; refused feeds after the stop count nothing.
    if (!obs::kEnabled)
        GTEST_SKIP() << "built with AZOO_OBS=OFF";
    const Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(4096);
    obs::Registry &reg = obs::Registry::global();
    const char *const kStops = "engine.planned.guard_stops.limit-exceeded";
    for (EngineKind kind :
         {EngineKind::kNfa, EngineKind::kLazyDfa, EngineKind::kAuto}) {
        SCOPED_TRACE(engineName(kind));
        PlannedSession sess(compileProgram(kind, a));
        RunGuard guard;
        guard.setSymbolBudget(1000);
        sess.options.guard = &guard;
        const uint64_t before = reg.counterValue(kStops);
        EXPECT_EQ(sess.feed(in), kGuardCheckIntervalSymbols);
        EXPECT_EQ(sess.feed(in), 0u);
        EXPECT_TRUE(sess.stopped());
        EXPECT_EQ(reg.counterValue(kStops) - before, 1u);
    }
}

// ---------------------------------------------------------------
// Session reuse. azoo_serve pools engine sessions across protocol
// sessions, so reset() must restore *every* piece of state a feed can
// dirty — match state, counters, stream offset, guard status — or a
// reused session leaks one client's progress into the next. The
// regression cycles dirty->reset->rerun across the whole zoo and
// demands bit-identical results to a fresh session, including the
// nastiest path: reset after a mid-stream guard stop.

void
expectSameAsFresh(PlannedSession &reused, const std::vector<uint8_t> &in,
                  const char *what)
{
    PlannedSession fresh(reused.program());
    size_t pos = 0;
    // Uneven chunking on the reused session, monolithic on the fresh
    // one: reset must also clear chunk-boundary carry state.
    const size_t kChunks[] = {1, 777, 64, 4096};
    size_t ci = 0;
    while (pos < in.size()) {
        const size_t n = std::min(kChunks[ci++ % 4], in.size() - pos);
        reused.feed(in.data() + pos, n);
        pos += n;
    }
    fresh.feed(in.data(), in.size());
    const SimResult got = reused.results();
    const SimResult want = fresh.results();
    EXPECT_EQ(got.symbols, want.symbols) << what;
    EXPECT_EQ(got.reportCount, want.reportCount) << what;
    EXPECT_EQ(got.reports, want.reports) << what;
    EXPECT_EQ(reused.offset(), in.size()) << what;
}

/** Runs the cycles on every zoo row over @p kind's program; returns
 *  how many sessions had handed their lazy-DFA group to the
 *  interpreter when first reset. */
size_t
cycleResetAcrossZoo(EngineKind kind)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 8192;
    size_t handedOff = 0;
    for (const auto &info : zoo::allBenchmarks()) {
        SCOPED_TRACE(info.name);
        zoo::Benchmark b = info.make(cfg);
        const std::vector<uint8_t> &in = b.input;
        PlannedSession sess(compileProgram(kind, b.automaton));

        // Cycle 1: dirty the session with a different slice, reset.
        sess.feed(in.data(), in.size() / 2);
        handedOff += sess.lazyInterpreted();
        sess.reset();
        expectSameAsFresh(sess, in, "after plain reset");

        // Cycle 2: stop it mid-stream with a guard, reset. A stopped
        // session refuses feeds, so this is the path a pooled serve
        // session takes after a truncated reply.
        sess.reset();
        RunGuard guard;
        guard.setSymbolBudget(2048);
        sess.options.guard = &guard;
        sess.feed(in.data(), in.size());
        EXPECT_TRUE(sess.stopped());
        sess.reset();
        sess.options.guard = nullptr;
        expectSameAsFresh(sess, in, "after guard stop");
    }
    return handedOff;
}

TEST(SessionReuse, StreamingResetIsBitIdenticalAcrossZoo)
{
    // The `--engine nfa` stream: every component on the interpreter
    // cursor, so there is no DFA to leave.
    EXPECT_EQ(cycleResetAcrossZoo(EngineKind::kNfa), 0u);
}

TEST(SessionReuse, PlannedResetIsBitIdenticalAcrossZoo)
{
    // Rows whose lazy-DFA cache outgrows its budget are reset after
    // the hand-off and must keep matching a fresh session (which
    // starts on the DFA again).
    EXPECT_GT(cycleResetAcrossZoo(EngineKind::kLazyDfa), 0u);
    EXPECT_GT(cycleResetAcrossZoo(EngineKind::kAuto), 0u);
}

// ---------------------------------------------------------------
// One compiled program, many cursors: sessions only read the shared
// PlannedProgram, so cursors on different threads may run over it at
// once.

TEST(SharedProgram, ConcurrentCursorsMatchSerial)
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 32 * 1024;
    // Snort plans onto the prefilter and the rest group; ClamAV is
    // prefilter-dominated.
    for (const char *name : {"Snort", "ClamAV"}) {
        SCOPED_TRACE(name);
        zoo::Benchmark b = zoo::makeBenchmark(name, cfg);
        const size_t half = b.input.size() / 2;
        const std::vector<uint8_t> in[2] = {
            {b.input.begin(), b.input.begin() + half},
            {b.input.begin() + half, b.input.end()}};
        const auto nfa = compileProgram(EngineKind::kNfa, b.automaton);
        const auto planned = compileProgram(EngineKind::kAuto, b.automaton);

        SimResult viaNfa[2], viaAuto[2];
        auto run = [&](size_t i) {
            PlannedSession s(nfa), p(planned);
            for (size_t pos = 0; pos < in[i].size(); pos += 1500) {
                const size_t n = std::min<size_t>(1500, in[i].size() - pos);
                s.feed(in[i].data() + pos, n);
                p.feed(in[i].data() + pos, n);
            }
            viaNfa[i] = s.results();
            viaAuto[i] = p.results();
        };
        std::thread t0(run, 0), t1(run, 1);
        t0.join();
        t1.join();

        const NfaEngine serial(b.automaton);
        for (size_t i = 0; i < 2; ++i) {
            const SimResult want = canon(serial.simulate(in[i]));
            for (const SimResult *got : {&viaNfa[i], &viaAuto[i]}) {
                EXPECT_EQ(got->symbols, want.symbols) << i;
                EXPECT_EQ(got->reportCount, want.reportCount) << i;
                EXPECT_EQ(got->reportingCycles, want.reportingCycles)
                    << i;
                EXPECT_EQ(got->reports, want.reports) << i;
            }
        }
    }
}

} // namespace
} // namespace azoo
