/**
 * @file
 * StreamingSession tests: chunked feeding is equivalent to monolithic
 * simulation for arbitrary chunkings, including single-byte feeds,
 * counter state across boundaries, and reset semantics.
 */

#include <gtest/gtest.h>

#include "core/builder.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "engine/run_guard.hh"
#include "engine/streaming.hh"
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

TEST(Streaming, MatchStraddlesChunkBoundary)
{
    Automaton a("t");
    addLiteral(a, "abcd", StartType::kAllInput, true, 1);
    StreamingSession sess(a);
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
    StreamingSession sess(a);
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
    StreamingSession sess(a);
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
    StreamingSession sess(a);
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
    auto expect = mono.simulate(in, opts);

    StreamingSession sess(a);
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
    StreamingSession one(a);
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

    StreamingSession sess(a);
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
    const SimResult &r = sess.results();
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
    EXPECT_EQ(r.reports, serial.reports);
    EXPECT_EQ(r.totalEnabled, serial.totalEnabled);
}

TEST(StreamingGuard, StoppedSessionRefusesFeedUntilReset)
{
    Automaton a = guardAutomaton();
    const std::vector<uint8_t> in = guardInput(4096);

    RunGuard guard;
    guard.setSymbolBudget(1000);
    StreamingSession sess(a);
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
    StreamingSession sess(a);
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
    StreamingSession sess(a);
    sess.options.guard = &guard;
    // Skip the t=0 poll, fire on the second check (t=1024).
    fault::armAfter(fault::Point::kGuardExpiry, 1);
    const size_t got = sess.feed(in);
    EXPECT_EQ(got, kGuardCheckIntervalSymbols);
    EXPECT_TRUE(sess.stopped());
    const SimResult &r = sess.results();
    EXPECT_EQ(r.guardStatus.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(r.symbols, kGuardCheckIntervalSymbols);
    // Results cover exactly the consumed prefix: one 'z' per 7 bytes.
    EXPECT_EQ(r.reportCount, (kGuardCheckIntervalSymbols + 6) / 7);
}

// ---------------------------------------------------------------
// Session reuse. azoo_serve pools engine sessions across protocol
// sessions, so reset() must restore *every* piece of state a feed can
// dirty — match state, counters, stream offset, guard status — or a
// reused session leaks one client's progress into the next. The
// regression cycles dirty->reset->rerun across the whole zoo and
// demands bit-identical results to a fresh session, including the
// nastiest path: reset after a mid-stream guard stop.

/** Canonicalized copy (sorted reports) for order-independent
 *  comparison. */
SimResult
canon(SimResult r)
{
    canonicalizeReports(r);
    return r;
}

template <typename Session>
void
expectSameAsFresh(const Automaton &a, Session &reused,
                  const std::vector<uint8_t> &in, const char *what)
{
    Session fresh(a);
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
    const SimResult got = canon(reused.results());
    const SimResult want = canon(fresh.results());
    EXPECT_EQ(got.symbols, want.symbols) << what;
    EXPECT_EQ(got.reportCount, want.reportCount) << what;
    EXPECT_EQ(got.reports, want.reports) << what;
    EXPECT_EQ(reused.offset(), in.size()) << what;
}

template <typename Session>
void
cycleResetAcrossZoo()
{
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 8192;
    for (const auto &info : zoo::allBenchmarks()) {
        SCOPED_TRACE(info.name);
        zoo::Benchmark b = info.make(cfg);
        const std::vector<uint8_t> &in = b.input;
        Session sess(b.automaton);

        // Cycle 1: dirty the session with a different slice, reset.
        sess.feed(in.data(), in.size() / 2);
        sess.reset();
        expectSameAsFresh(b.automaton, sess, in, "after plain reset");

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
        expectSameAsFresh(b.automaton, sess, in, "after guard stop");
    }
}

TEST(SessionReuse, StreamingResetIsBitIdenticalAcrossZoo)
{
    cycleResetAcrossZoo<StreamingSession>();
}

TEST(SessionReuse, PlannedResetIsBitIdenticalAcrossZoo)
{
    cycleResetAcrossZoo<PlannedSession>();
}

} // namespace
} // namespace azoo
