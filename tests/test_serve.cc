/**
 * @file
 * Match-service tests: protocol encode/decode, admission control,
 * priority shedding, backpressure bounds, guard-exact truncation,
 * drain-under-load, and the chaos invariant — under injected
 * connection faults, every reply that claims a result is bit-identical
 * to a serial engine run over the stream (or the consumed prefix).
 *
 * All server tests run a real serve::Server on a loopback socket with
 * real clients — the robustness claims are about sockets, threads,
 * and partial writes, which in-process shortcuts would not exercise.
 * This binary is part of the TSan CI leg; every cross-thread handoff
 * in the server is under test here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/builder.hh"
#include "core/serialize.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "obs/obs.hh"
#include "serve/client.hh"
#include "serve/ruleset.hh"
#include "serve/server.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"

namespace azoo {
namespace serve {
namespace {

std::vector<uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** Small always-armed pattern set with non-trivial match density. */
Automaton
testAutomaton()
{
    Automaton a("serve-test");
    addLiteral(a, "abc", StartType::kAllInput, true, 1);
    addLiteral(a, "needle", StartType::kAllInput, true, 2);
    addLiteral(a, "xyzw", StartType::kAllInput, true, 3);
    return a;
}

/** Same planted literals as testAutomaton() but different report
 *  codes: replies distinguish which ruleset generation answered. */
Automaton
altAutomaton()
{
    Automaton a("serve-test-alt");
    addLiteral(a, "abc", StartType::kAllInput, true, 11);
    addLiteral(a, "needle", StartType::kAllInput, true, 12);
    return a;
}

/** Wider pattern set so fixed per-session slack does not dominate the
 *  footprint comparison. */
Automaton
wideAutomaton(size_t literals)
{
    Automaton a("serve-wide");
    Rng rng(7);
    for (size_t i = 0; i < literals; ++i) {
        std::string lit;
        for (int j = 0; j < 8; ++j)
            lit.push_back(
                static_cast<char>('a' + rng.nextBelow(26)));
        addLiteral(a, lit, StartType::kAllInput, true,
                   static_cast<uint32_t>(i + 1));
    }
    return a;
}

/** Write @p a as an azml ruleset file reload tests can point at. */
std::string
writeRulesetFile(const std::string &name, const Automaton &a)
{
    const std::string path = testing::TempDir() + "/" + name;
    saveAzml(path, a);
    return path;
}

/** Seeded payload with planted matches every ~stride bytes. */
std::vector<uint8_t>
testPayload(uint64_t seed, size_t len)
{
    Rng rng(seed);
    std::vector<uint8_t> p(len);
    for (auto &c : p)
        c = static_cast<uint8_t>('a' + rng.nextBelow(16));
    for (size_t i = 0; i + 6 < len; i += 97) {
        const char *lit = (i % 2) ? "abc" : "needle";
        for (size_t j = 0; lit[j]; ++j)
            p[i + j] = static_cast<uint8_t>(lit[j]);
    }
    return p;
}

/** Canonical serial-engine result over @p data's first @p len bytes:
 *  the ground truth every "carries a result" reply must match. */
SimResult
serialRun(const Automaton &a, const uint8_t *data, size_t len)
{
    NfaEngine e(a);
    SimResult r = e.simulate(data, len, SimOptions());
    canonicalizeReports(r);
    return r;
}

/** In-process server on a kernel-picked loopback port, run() on its
 *  own thread; the destructor drains and checks the exit code. */
class ServerHarness
{
  public:
    explicit ServerHarness(const Automaton &a,
                           ServerOptions opts = ServerOptions())
        : server_(a, opts)
    {
        launch();
    }

    explicit ServerHarness(RulesetGeneration gen,
                           ServerOptions opts = ServerOptions())
        : server_(std::move(gen), opts)
    {
        launch();
    }

    ~ServerHarness()
    {
        if (thread_.joinable())
            shutdown();
    }

    /** Graceful drain; returns run()'s exit code. */
    int
    shutdown()
    {
        server_.requestShutdown();
        thread_.join();
        return exitCode_;
    }

    const std::string &addr() const { return addr_; }
    Server &server() { return server_; }

  private:
    void
    launch()
    {
        Status st = server_.start();
        if (!st.ok())
            fatal(cat("harness: ", st.str()));
        thread_ = std::thread([this] { exitCode_ = server_.run(); });
        addr_ = cat("tcp:", server_.port());
    }

    Server server_;
    std::thread thread_;
    std::string addr_;
    int exitCode_ = -1;
};

/** Connect + open + stream + finish; EXPECT transport success. */
Reply
runOneSession(const std::string &addr, const std::vector<uint8_t> &in,
              uint8_t priority = 0, size_t chunk = 4096)
{
    Client c;
    EXPECT_TRUE(c.connect(addr).ok());
    EXPECT_TRUE(c.open(priority).ok());
    EXPECT_TRUE(c.admitted());
    for (size_t pos = 0; pos < in.size(); pos += chunk) {
        const size_t n = std::min(chunk, in.size() - pos);
        if (!c.send(in.data() + pos, n).ok())
            break;
    }
    Expected<Reply> r = c.finish();
    EXPECT_TRUE(r.ok()) << r.status().str();
    return r.ok() ? *r : Reply();
}

// ---------------------------------------------------------------
// Protocol layer (no server).

TEST(ServeProtocol, ReplyRoundTrip)
{
    Reply in;
    in.status = ReplyStatus::kTruncated;
    in.detail = ErrorCode::kLimitExceeded;
    in.symbols = 123456789;
    in.reportCount = 42;
    in.reports = {{7, 3, 1}, {1000, 9, 2}};
    std::vector<uint8_t> payload;
    in.encodeTo(payload);
    Expected<Reply> out = Reply::decode(payload.data(), payload.size());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->status, in.status);
    EXPECT_EQ(out->detail, in.detail);
    EXPECT_EQ(out->symbols, in.symbols);
    EXPECT_EQ(out->reportCount, in.reportCount);
    EXPECT_EQ(out->reports, in.reports);
}

TEST(ServeProtocol, ReplyDecodeRejectsMalformed)
{
    Reply in;
    in.status = ReplyStatus::kOk;
    std::vector<uint8_t> payload;
    in.encodeTo(payload);
    // Truncated fixed part.
    EXPECT_FALSE(Reply::decode(payload.data(), 3).ok());
    // Length disagreeing with the record count.
    payload.push_back(0);
    EXPECT_FALSE(
        Reply::decode(payload.data(), payload.size()).ok());
    // Unknown status byte.
    std::vector<uint8_t> bad = payload;
    bad.resize(22);
    bad[0] = 200;
    EXPECT_FALSE(Reply::decode(bad.data(), bad.size()).ok());
}

TEST(ServeProtocol, FrameReaderReassemblesSplitFrames)
{
    std::vector<uint8_t> wire;
    const auto d1 = bytes("hello");
    appendFrame(wire, FrameType::kData, d1.data(), d1.size());
    appendFrame(wire, FrameType::kFin, nullptr, 0);

    FrameReader reader;
    Frame f;
    // Byte-at-a-time delivery must produce the same two frames.
    std::vector<FrameType> seen;
    for (uint8_t b : wire) {
        reader.append(&b, 1);
        while (reader.next(f))
            seen.push_back(f.type);
    }
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], FrameType::kData);
    EXPECT_EQ(seen[1], FrameType::kFin);
    EXPECT_TRUE(reader.error().ok());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServeProtocol, FrameReaderStickyErrorOnGarbage)
{
    FrameReader reader;
    // Oversized payload length.
    const uint8_t huge[5] = {0xff, 0xff, 0xff, 0xff, 0x02};
    reader.append(huge, sizeof(huge));
    Frame f;
    EXPECT_FALSE(reader.next(f));
    EXPECT_FALSE(reader.error().ok());
    // Sticky: even valid bytes afterwards stay unparsed.
    std::vector<uint8_t> wire;
    appendFrame(wire, FrameType::kFin, nullptr, 0);
    reader.append(wire.data(), wire.size());
    EXPECT_FALSE(reader.next(f));
}

TEST(ServeProtocol, FrameReaderRejectsUnknownType)
{
    FrameReader reader;
    const uint8_t frame[5] = {0, 0, 0, 0, 0x7f};
    reader.append(frame, sizeof(frame));
    Frame f;
    EXPECT_FALSE(reader.next(f));
    EXPECT_FALSE(reader.error().ok());
}

TEST(ServeProtocol, FrameHeldAcrossAppendStaysValid)
{
    // Regression: FrameReader used to hand out payload pointers into
    // its receive buffer, which reallocates on append — holding the
    // decoded frame while more socket bytes arrived was a
    // use-after-free (ASan catches the old behaviour here). The
    // contract is now stable owned storage per decoded frame.
    FrameReader r;
    const std::vector<uint8_t> body = testPayload(3, 512);
    std::vector<uint8_t> wire;
    appendFrame(wire, FrameType::kData, body.data(), body.size());
    r.append(wire.data(), wire.size());
    Frame f;
    ASSERT_TRUE(r.next(f));
    ASSERT_EQ(f.len, body.size());
    const std::vector<uint8_t> more(64 << 10, 0xab);
    for (int i = 0; i < 8; ++i)
        r.append(more.data(), more.size()); // forces buffer growth
    r.compact();
    EXPECT_EQ(std::vector<uint8_t>(f.payload, f.payload + f.len),
              body);
}

TEST(ServeProtocol, TakePayloadMovesChunkAndParsingContinues)
{
    FrameReader r;
    const std::vector<uint8_t> body = bytes("hello frame payload");
    std::vector<uint8_t> wire;
    appendFrame(wire, FrameType::kData, body.data(), body.size());
    appendFrame(wire, FrameType::kFin, nullptr, 0);
    r.append(wire.data(), wire.size());
    Frame f;
    ASSERT_TRUE(r.next(f));
    ASSERT_EQ(f.type, FrameType::kData);
    EXPECT_EQ(r.takePayload(), body);
    ASSERT_TRUE(r.next(f));
    EXPECT_EQ(f.type, FrameType::kFin);
    EXPECT_EQ(f.len, 0u);
    EXPECT_FALSE(r.next(f));
    EXPECT_TRUE(r.error().ok());
}

TEST(ServeProtocol, ReloadFrameTypeIsKnown)
{
    FrameReader r;
    const std::vector<uint8_t> body = {0, 0, 0, 0, 'x', '.',
                                       'a', 'z', 'm', 'l'};
    std::vector<uint8_t> wire;
    appendFrame(wire, FrameType::kReload, body.data(), body.size());
    r.append(wire.data(), wire.size());
    Frame f;
    ASSERT_TRUE(r.next(f));
    EXPECT_EQ(f.type, FrameType::kReload);
    EXPECT_EQ(f.len, body.size());
    EXPECT_TRUE(r.error().ok());
}

TEST(ServeProtocol, DetailCodesRoundTripThroughWireTable)
{
    const ErrorCode codes[] = {
        ErrorCode::kOk,
        ErrorCode::kParseError,
        ErrorCode::kUnsupported,
        ErrorCode::kLimitExceeded,
        ErrorCode::kIoError,
        ErrorCode::kDeadlineExceeded,
        ErrorCode::kCancelled,
        ErrorCode::kResourceExhausted,
        ErrorCode::kInvalidArgument,
        ErrorCode::kVersionMismatch,
        ErrorCode::kChecksumMismatch,
        ErrorCode::kInternal,
    };
    for (ErrorCode c : codes) {
        ErrorCode rt = ErrorCode::kInternal;
        ASSERT_TRUE(detailFromWire(detailToWire(c), rt));
        EXPECT_EQ(rt, c);
        Reply in;
        in.status = ReplyStatus::kTruncated;
        in.detail = c;
        std::vector<uint8_t> p;
        in.encodeTo(p);
        Expected<Reply> out = Reply::decode(p.data(), p.size());
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out->detail, c);
    }
}

TEST(ServeProtocol, UnknownDetailByteIsParseErrorNotMisdecode)
{
    // A peer from a newer protocol revision may send detail values
    // this build has no entry for; they must surface as a clean parse
    // failure, never as whatever ErrorCode shares the raw value.
    Reply in;
    in.status = ReplyStatus::kOk;
    std::vector<uint8_t> p;
    in.encodeTo(p);
    p[1] = 200; // no revision of the wire table assigns this
    Expected<Reply> out = Reply::decode(p.data(), p.size());
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), ErrorCode::kParseError);
    ErrorCode dummy;
    EXPECT_FALSE(detailFromWire(200, dummy));
    EXPECT_FALSE(detailFromWire(12, dummy)); // first unassigned value
}

// ---------------------------------------------------------------
// Admission controller (no sockets).

TEST(ServeAdmission, TableCapRejectsBusy)
{
    ServeLimits limits;
    limits.maxSessions = 2;
    limits.memoryBudgetBytes = 0;
    SessionManager m(limits, 1000);
    EXPECT_EQ(m.capacity(), 2u);
    EXPECT_TRUE(m.tryAdmit(0, false).admitted);
    m.admit(1, 0);
    m.admit(2, 0);
    AdmitDecision d = m.tryAdmit(0, false);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reject, ReplyStatus::kRejectedBusy);
}

TEST(ServeAdmission, MemoryBudgetDerivesCapacity)
{
    ServeLimits limits;
    limits.maxSessions = 100;
    limits.queueBudgetBytes = 1000;
    limits.memoryBudgetBytes = 10000;
    SessionManager m(limits, 4000); // 5000/session incl. queue
    EXPECT_EQ(m.capacity(), 2u);
    m.admit(1, 0);
    m.admit(2, 0);
    AdmitDecision d = m.tryAdmit(0, false);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reject, ReplyStatus::kRejectedMemory);
}

TEST(ServeAdmission, StrictPriorityShedsLowestVictim)
{
    ServeLimits limits;
    limits.maxSessions = 2;
    limits.memoryBudgetBytes = 0;
    SessionManager m(limits, 1000);
    m.admit(10, 5);
    m.admit(11, 3);
    // Equal priority to the lowest: no shed, reject.
    EXPECT_FALSE(m.tryAdmit(3, false).admitted);
    // Strictly higher: sheds the lowest-priority session (id 11).
    AdmitDecision d = m.tryAdmit(4, false);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.shedVictim, 11u);
    m.retire(11);
    m.admit(12, 4);
    EXPECT_EQ(m.active(), 2u);
}

TEST(ServeAdmission, DrainRejectsEverything)
{
    SessionManager m(ServeLimits(), 1000);
    AdmitDecision d = m.tryAdmit(255, true);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reject, ReplyStatus::kRejectedDrain);
}

// ---------------------------------------------------------------
// End-to-end sessions.

TEST(ServeSession, ReplyMatchesSerialRun)
{
    const Automaton a = testAutomaton();
    ServerHarness h(a);
    const auto in = testPayload(1, 64 << 10);
    const Reply r = runOneSession(h.addr(), in);
    EXPECT_EQ(r.status, ReplyStatus::kOk);
    EXPECT_EQ(r.detail, ErrorCode::kOk);
    const SimResult want = serialRun(a, in.data(), in.size());
    EXPECT_EQ(r.symbols, want.symbols);
    EXPECT_EQ(r.reportCount, want.reportCount);
    EXPECT_EQ(r.reports, want.reports);
    EXPECT_EQ(h.shutdown(), 0);
}

TEST(ServeSession, PlannedEngineRepliesIdentically)
{
    const Automaton a = testAutomaton();
    RulesetSpec spec;
    spec.engine = EngineKind::kAuto;
    ServerHarness h(makeInlineRuleset(a, spec));
    const auto in = testPayload(2, 32 << 10);
    const Reply r = runOneSession(h.addr(), in);
    EXPECT_EQ(r.status, ReplyStatus::kOk);
    const SimResult want = serialRun(a, in.data(), in.size());
    EXPECT_EQ(r.reportCount, want.reportCount);
    EXPECT_EQ(r.reports, want.reports);
}

TEST(ServeSession, SessionsReusePooledEnginesExactly)
{
    const Automaton a = testAutomaton();
    ServerHarness h(a);
    // Sequential sessions share one pooled engine session; each reply
    // must be exactly the fresh-session answer.
    for (int i = 0; i < 5; ++i) {
        const auto in = testPayload(100 + i, 8 << 10);
        const Reply r = runOneSession(h.addr(), in);
        EXPECT_EQ(r.status, ReplyStatus::kOk);
        const SimResult want = serialRun(a, in.data(), in.size());
        EXPECT_EQ(r.reportCount, want.reportCount);
        EXPECT_EQ(r.reports, want.reports);
    }
}

TEST(ServeSession, AdmissionRejectsWhenTableFull)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.maxSessions = 1;
    ServerHarness h(a, opts);

    Client first;
    ASSERT_TRUE(first.connect(h.addr()).ok());
    ASSERT_TRUE(first.open(0).ok());
    ASSERT_TRUE(first.admitted());

    Client second;
    ASSERT_TRUE(second.connect(h.addr()).ok());
    ASSERT_TRUE(second.open(0).ok());
    EXPECT_FALSE(second.admitted());
    EXPECT_EQ(second.reply().status, ReplyStatus::kRejectedBusy);

    const auto in = testPayload(3, 1024);
    ASSERT_TRUE(first.send(in).ok());
    Expected<Reply> r = first.finish();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, ReplyStatus::kOk);
}

TEST(ServeSession, HigherPrioritySessionShedsLower)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.maxSessions = 1;
    ServerHarness h(a, opts);

    Client low;
    ASSERT_TRUE(low.connect(h.addr()).ok());
    ASSERT_TRUE(low.open(1).ok());
    ASSERT_TRUE(low.admitted());
    const auto fed = testPayload(4, 2048);
    ASSERT_TRUE(low.send(fed).ok());

    Client high;
    ASSERT_TRUE(high.connect(h.addr()).ok());
    ASSERT_TRUE(high.open(200).ok());
    EXPECT_TRUE(high.admitted());

    // The shed session still gets an explicit reply with an exact
    // result over whatever prefix the engine consumed.
    Expected<Reply> shedReply = low.finish();
    ASSERT_TRUE(shedReply.ok());
    EXPECT_EQ(shedReply->status, ReplyStatus::kShedOverload);
    EXPECT_EQ(shedReply->detail, ErrorCode::kCancelled);
    ASSERT_LE(shedReply->symbols, fed.size());
    const SimResult want =
        serialRun(a, fed.data(), shedReply->symbols);
    EXPECT_EQ(shedReply->reportCount, want.reportCount);
    EXPECT_EQ(shedReply->reports, want.reports);

    const auto in = testPayload(5, 1024);
    ASSERT_TRUE(high.send(in).ok());
    Expected<Reply> r = high.finish();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, ReplyStatus::kOk);
    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().shed, 1u);
}

TEST(ServeSession, ShedFreesExactlyOneAdmissionSlot)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.maxSessions = 1;
    ServerHarness h(a, opts);

    Client low;
    ASSERT_TRUE(low.connect(h.addr()).ok());
    ASSERT_TRUE(low.open(1).ok());
    ASSERT_TRUE(low.admitted());
    ASSERT_TRUE(low.send(testPayload(40, 64 << 10)).ok());

    Client high;
    ASSERT_TRUE(high.connect(h.addr()).ok());
    ASSERT_TRUE(high.open(200).ok());
    ASSERT_TRUE(high.admitted());

    // The victim leaves admission at shed time, not when its reply
    // lands: a third OPEN below the survivor's priority must be
    // rejected, never admitted against the still-retiring victim
    // (which would push active() past capacity()).
    Client mid;
    ASSERT_TRUE(mid.connect(h.addr()).ok());
    ASSERT_TRUE(mid.open(150).ok());
    EXPECT_FALSE(mid.admitted());
    EXPECT_EQ(mid.reply().status, ReplyStatus::kRejectedBusy);

    Expected<Reply> shedReply = low.finish();
    ASSERT_TRUE(shedReply.ok());
    EXPECT_EQ(shedReply->status, ReplyStatus::kShedOverload);
    ASSERT_TRUE(high.send(testPayload(41, 1024)).ok());
    Expected<Reply> r = high.finish();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, ReplyStatus::kOk);
}

TEST(ServeSession, SilentConnIsClosedAtOpenTimeout)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.openTimeoutMs = 200;
    ServerHarness h(a, opts);

    // Connect and never send OPEN: the server must reclaim the fd at
    // the handshake deadline instead of holding it forever.
    Expected<net::Fd> fd = net::connectTo(h.addr());
    ASSERT_TRUE(fd.ok());
    uint8_t b;
    EXPECT_FALSE(net::readAll(fd->get(), &b, 1, 5000).ok()); // EOF

    // The server is unharmed and still serves.
    const auto in = testPayload(42, 1024);
    const Reply r = runOneSession(h.addr(), in);
    EXPECT_EQ(r.status, ReplyStatus::kOk);
    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().openTimeouts, 1u);
}

TEST(ServeSession, OpenTimeoutDoesNotOutliveAdmission)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.openTimeoutMs = 150; // no session deadline configured
    ServerHarness h(a, opts);

    Client c;
    ASSERT_TRUE(c.connect(h.addr()).ok());
    ASSERT_TRUE(c.open(0).ok());
    ASSERT_TRUE(c.admitted());
    // Idle well past the handshake deadline: an admitted session must
    // not inherit it (only ServeLimits::sessionDeadlineMs applies).
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    const auto in = testPayload(43, 2048);
    ASSERT_TRUE(c.send(in).ok());
    Expected<Reply> r = c.finish();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, ReplyStatus::kOk);
}

TEST(ServeSession, PendingConnCapClosesExcessAccepts)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.maxPendingConns = 2;
    opts.drainDeadlineMs = 200;
    opts.lingerMs = 200;
    ServerHarness h(a, opts);

    // Two connections may sit pre-OPEN; the third and fourth must be
    // closed at accept (admission cannot see them, so the cap is the
    // only bound on never-opening clients).
    std::vector<net::Fd> held;
    for (int i = 0; i < 2; ++i) {
        Expected<net::Fd> fd = net::connectTo(h.addr());
        ASSERT_TRUE(fd.ok());
        held.push_back(std::move(*fd));
    }
    for (int i = 0; i < 2; ++i) {
        Expected<net::Fd> fd = net::connectTo(h.addr());
        ASSERT_TRUE(fd.ok());
        uint8_t b;
        EXPECT_FALSE(net::readAll(fd->get(), &b, 1, 5000).ok());
    }
    held.clear(); // EOF the held conns so drain is immediate
    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().pendingClosed, 2u);
    EXPECT_EQ(h.server().stats().accepted, 2u); // only the held pair
}

TEST(ServeSession, BackpressureBoundsQueuedBytes)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.queueBudgetBytes = 16 << 10;
    ServerHarness h(a, opts);
    const size_t chunk = 4096;
    const auto in = testPayload(6, 1 << 20); // 1 MiB through a 16 KiB queue
    const Reply r = runOneSession(h.addr(), in, 0, chunk);
    EXPECT_EQ(r.status, ReplyStatus::kOk);
    const SimResult want = serialRun(a, in.data(), in.size());
    EXPECT_EQ(r.reportCount, want.reportCount);
    EXPECT_EQ(h.shutdown(), 0);
    // The inbox may overshoot by at most one DATA frame before the
    // pause trips; anything beyond that means backpressure leaked.
    EXPECT_LE(h.server().stats().peakQueueBytes,
              opts.limits.queueBudgetBytes + chunk);
}

TEST(ServeSession, SymbolBudgetTruncatesExactly)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.sessionSymbolBudget = 1500;
    ServerHarness h(a, opts);
    const auto in = testPayload(7, 32 << 10);
    const Reply r = runOneSession(h.addr(), in);
    EXPECT_EQ(r.status, ReplyStatus::kTruncated);
    EXPECT_EQ(r.detail, ErrorCode::kLimitExceeded);
    ASSERT_GT(r.symbols, 0u);
    ASSERT_LT(r.symbols, in.size());
    // Truncated-but-exact: the reply equals a serial run over exactly
    // the consumed prefix.
    const SimResult want = serialRun(a, in.data(), r.symbols);
    EXPECT_EQ(r.reportCount, want.reportCount);
    EXPECT_EQ(r.reports, want.reports);
}

TEST(ServeSession, IdleSessionHitsDeadline)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.sessionDeadlineMs = 200;
    ServerHarness h(a, opts);
    Client c;
    ASSERT_TRUE(c.connect(h.addr()).ok());
    ASSERT_TRUE(c.open(0).ok());
    ASSERT_TRUE(c.admitted());
    // Stay silent past the deadline: the loop's timer must end the
    // session on its own (the guard only fires inside feed()). The
    // late FIN lands on a kReplying/kLingering connection and is
    // discarded; finish() still reads the queued REPLY.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    Expected<Reply> r = c.finish(5000);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, ReplyStatus::kTruncated);
    EXPECT_EQ(r->detail, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(r->symbols, 0u);
}

TEST(ServeSession, ProtocolErrorsGetExplicitReplies)
{
    const Automaton a = testAutomaton();
    ServerHarness h(a);

    // DATA before OPEN.
    {
        Expected<net::Fd> fd = net::connectTo(h.addr());
        ASSERT_TRUE(fd.ok());
        std::vector<uint8_t> wire;
        const auto d = bytes("hi");
        appendFrame(wire, FrameType::kData, d.data(), d.size());
        ASSERT_TRUE(
            net::writeAll(fd->get(), wire.data(), wire.size()).ok());
        uint8_t header[kFrameHeaderSize];
        ASSERT_TRUE(net::readAll(fd->get(), header, sizeof(header),
                                 5000)
                        .ok());
        EXPECT_EQ(header[4], static_cast<uint8_t>(FrameType::kReply));
        std::vector<uint8_t> payload(
            static_cast<uint32_t>(header[0]) |
            (static_cast<uint32_t>(header[1]) << 8) |
            (static_cast<uint32_t>(header[2]) << 16) |
            (static_cast<uint32_t>(header[3]) << 24));
        ASSERT_TRUE(net::readAll(fd->get(), payload.data(),
                                 payload.size(), 5000)
                        .ok());
        Expected<Reply> r =
            Reply::decode(payload.data(), payload.size());
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->status, ReplyStatus::kProtocolError);
    }

    // Garbage frame type.
    {
        Expected<net::Fd> fd = net::connectTo(h.addr());
        ASSERT_TRUE(fd.ok());
        const uint8_t junk[5] = {0, 0, 0, 0, 0x55};
        ASSERT_TRUE(
            net::writeAll(fd->get(), junk, sizeof(junk)).ok());
        uint8_t header[kFrameHeaderSize];
        ASSERT_TRUE(net::readAll(fd->get(), header, sizeof(header),
                                 5000)
                        .ok());
        EXPECT_EQ(header[4], static_cast<uint8_t>(FrameType::kReply));
    }

    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().protocolErrors, 2u);
}

TEST(ServeSession, ClientDropIsNotFatal)
{
    const Automaton a = testAutomaton();
    ServerHarness h(a);
    // Open, stream a little, vanish without FIN. The server must
    // carry on serving (SIGPIPE ignored, abort counted).
    {
        Client c;
        ASSERT_TRUE(c.connect(h.addr()).ok());
        ASSERT_TRUE(c.open(0).ok());
        ASSERT_TRUE(c.send(testPayload(8, 4096)).ok());
        c.close();
    }
    const auto in = testPayload(9, 4096);
    const Reply r = runOneSession(h.addr(), in);
    EXPECT_EQ(r.status, ReplyStatus::kOk);
    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().aborted, 1u);
}

TEST(ServeDrain, DrainUnderLoadAnswersEveryAdmittedSession)
{
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.drainDeadlineMs = 1000;
    ServerHarness h(a, opts);

    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 8;
    std::atomic<uint64_t> admitted{0}, answered{0}, refused{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = 0; i < kPerThread; ++i) {
                Client c;
                if (!c.connect(h.addr()).ok())
                    return; // listener already closed: drain begun
                if (!c.open(0).ok())
                    return;
                if (!c.admitted()) {
                    ++refused;
                    EXPECT_EQ(c.reply().status,
                              ReplyStatus::kRejectedDrain);
                    continue;
                }
                ++admitted;
                const auto in = testPayload(t * 100 + i, 32 << 10);
                (void)c.send(in);
                Expected<Reply> r = c.finish();
                // Invariant: an admitted session either gets a REPLY
                // or the whole drain failed. No silent drops.
                ASSERT_TRUE(r.ok()) << r.status().str();
                ++answered;
                EXPECT_TRUE(replyCarriesResult(r->status));
            }
        });
    }
    // Let load build, then drain mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const int rc = h.shutdown();
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(rc, 0);
    EXPECT_GT(admitted.load(), 0u);
    EXPECT_EQ(answered.load(), admitted.load());
    EXPECT_GT(h.server().stats().drainNs, 0u);
}

// ---------------------------------------------------------------
// Admission estimate vs measured session footprint.

TEST(ServeSession, EstimateWithinOrderOfMagnitudeOfMeasured)
{
    // The admission controller prices sessions with
    // estimatedSessionBytes(); if that estimate drifts an order of
    // magnitude from what a session actually holds, the memory budget
    // admits far too much or far too little. Compare against the
    // measured footprint of a live, fed session for both engines.
    const Automaton a = wideAutomaton(300);
    const auto in = testPayload(5, 64 << 10);
    for (EngineKind eng : {EngineKind::kNfa, EngineKind::kAuto}) {
        MatchSessionPool pool(a, eng, PlanOptions(), 256);
        std::unique_ptr<PlannedSession> s = pool.acquire();
        s->feed(in.data(), in.size());
        const size_t measured = s->footprintBytes();
        const size_t estimate = pool.estimatedSessionBytes();
        ASSERT_GT(measured, 0u);
        EXPECT_LE(estimate, measured * 10)
            << "engine " << static_cast<int>(eng) << ": estimate "
            << estimate << " vs measured " << measured;
        EXPECT_LE(measured, estimate * 10)
            << "engine " << static_cast<int>(eng) << ": estimate "
            << estimate << " vs measured " << measured;
        pool.release(std::move(s));
    }
}

/** A lazy-DFA group (a star feeding an a/b chain) beside interpreted
 *  counters, as in LazyHandoff.InterpreterStateCrossesTheHandoff: a
 *  stream without 'b' keeps the DFA in one state-set while the
 *  counters count, latch and reset. */
Automaton
dfaBesideCounters()
{
    Automaton a("dfa-beside-counters");
    ElementId prev = addStarState(a, CharSet::all());
    for (int i = 0; i < 16; ++i) {
        const ElementId s = a.addSte(CharSet::single(i % 3 ? 'a' : 'b'));
        a.addEdge(prev, s);
        prev = s;
    }
    a.element(prev).reporting = true;
    a.element(prev).reportCode = 1;
    uint32_t code = 10;
    for (CounterMode mode : {CounterMode::kLatch, CounterMode::kRollover,
                             CounterMode::kPulse}) {
        const ElementId s =
            a.addSte(CharSet::single('a'), StartType::kAllInput);
        const ElementId c = a.addCounter(5, mode, true, code++);
        const ElementId r =
            a.addSte(CharSet::single('x'), StartType::kAllInput);
        a.addEdge(s, c);
        a.addResetEdge(r, c);
    }
    return a;
}

TEST(ServeSession, LazySessionFootprintWithinEstimate)
{
    // A planned session's lazy-DFA cache is session state: counted in
    // its footprint, and held to the lazy group's share of the
    // admission unit. AP PRNG stays on the DFA; Random Forest A hands
    // off to the interpreter and frees its cache. Each whole stream
    // is fed at once, recording at most the unit's maxReportRecords
    // (256) reports as the server does: AP PRNG reports 2,230 times,
    // and the settled counts stand in for the rest.
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 16 << 10;
    for (const char *name : {"AP PRNG 8-sided", "Random Forest A"}) {
        SCOPED_TRACE(name);
        const zoo::Benchmark b = zoo::makeBenchmark(name, cfg);
        SimResult ref = NfaEngine(b.automaton).simulate(b.input);
        canonicalizeReports(ref);
        const size_t len = b.input.size();

        MatchSessionPool pool(b.automaton, EngineKind::kAuto,
                              PlanOptions(), 256);
        std::unique_ptr<PlannedSession> s = pool.acquire();
        s->options.reportRecordLimit = 256;
        ASSERT_EQ(s->feed(b.input.data(), len), len);
        EXPECT_LE(s->footprintBytes(), pool.estimatedSessionBytes());
        const SimResult got = s->results();
        EXPECT_EQ(got.reportCount, ref.reportCount);
        EXPECT_EQ(got.reportingCycles, ref.reportingCycles);
        ref.reports.resize(std::min<size_t>(ref.reports.size(), 256));
        EXPECT_EQ(got.reports, ref.reports);
        pool.release(std::move(s));

        PlannedSession direct(b.automaton);
        direct.options.reportRecordLimit = 256;
        direct.feed(b.input.data(), len);
        const size_t cache = direct.lazyCache().footprintBytes();
        EXPECT_GE(direct.footprintBytes(), sizeof(PlannedSession) + cache);
        const bool handsOff = std::string(name) == "Random Forest A";
        ASSERT_EQ(direct.lazyInterpreted(), handsOff);
        if (handsOff) {
            EXPECT_LT(cache, 1024u) << "a hand-off frees the cache";
        } else {
            EXPECT_GT(ref.reportCount, 256u);
            EXPECT_GT(direct.lazyCache().bytesUsed(), 0u);
            EXPECT_GT(cache, 0u);
        }
    }

    // The admission peak: a session still on the DFA holds its cache
    // beside one interpreter scratch over the whole rest group.
    SCOPED_TRACE("DFA beside counters");
    const Automaton a = dfaBesideCounters();
    Rng rng(1);
    std::vector<uint8_t> calm(600);
    for (uint8_t &c : calm)
        c = "aaaacx"[rng.nextBelow(6)];
    SimResult ref = NfaEngine(a).simulate(calm);
    canonicalizeReports(ref);
    MatchSessionPool pool(a, EngineKind::kAuto, PlanOptions(), 256);
    std::unique_ptr<PlannedSession> s = pool.acquire();
    ASSERT_EQ(s->plan().census(), "D1/I3");
    s->options.reportRecordLimit = 256;
    ASSERT_EQ(s->feed(calm), calm.size());
    ASSERT_FALSE(s->lazyInterpreted());
    EXPECT_GT(s->lazyCache().bytesUsed(), 0u);
    EXPECT_LE(s->footprintBytes(), pool.estimatedSessionBytes());
    const SimResult got = s->results();
    EXPECT_EQ(got.reportCount, ref.reportCount);
    EXPECT_EQ(got.reports, ref.reports);
    pool.release(std::move(s));
}

TEST(ServeSession, CappedRecordsAreTheCanonicalFirstOnEveryEngine)
{
    // A record-capped session keeps the first reportRecordLimit
    // reports in canonical order on every served engine. "b" (element
    // 0) and "ab" (its 'b' is element 2) report in the same cycle at
    // every "ab"; the interpreter emits the edge-enabled element 2
    // first, canonical order element 0. The leading "b" puts the
    // 256th report inside such a cycle, so keeping the first 256 in
    // propagation order and sorting them after gives a different set.
    Automaton a("same-cycle");
    addLiteral(a, "b", StartType::kAllInput, true, 1);
    addLiteral(a, "ab", StartType::kAllInput, true, 2);
    std::vector<uint8_t> in = bytes("b");
    for (int i = 0; i < 1000; ++i) {
        in.push_back('a');
        in.push_back('b');
    }
    SimResult want = serialRun(a, in.data(), in.size());
    ASSERT_EQ(want.reportCount, 2001u);
    want.reports.resize(256);
    SimResult got[2];
    const EngineKind kinds[2] = {EngineKind::kNfa, EngineKind::kAuto};
    for (size_t k = 0; k < 2; ++k) {
        SCOPED_TRACE(engineName(kinds[k]));
        MatchSessionPool pool(a, kinds[k], PlanOptions(), 256);
        std::unique_ptr<PlannedSession> s = pool.acquire();
        s->options.reportRecordLimit = 256;
        feedChunks(in.data(), in.size(), 100,
                   [&](const uint8_t *p, size_t n) {
                       return s->feed(p, n);
                   });
        got[k] = s->results();
        EXPECT_EQ(got[k].reportCount, want.reportCount);
        EXPECT_EQ(got[k].reportingCycles, want.reportingCycles);
        EXPECT_EQ(got[k].reports, want.reports);
        pool.release(std::move(s));
    }
    EXPECT_EQ(got[0].reports, got[1].reports);
}

// ---------------------------------------------------------------
// One program per generation; sessions are cursors over it.

TEST(ServeSession, ConcurrentSessionsShareOneProgram)
{
    // Snort plans onto the prefilter and the rest group, so a planned
    // program compiles both.
    zoo::ZooConfig cfg;
    cfg.scale = 0.01;
    cfg.inputBytes = 3 * 8192;
    const zoo::Benchmark b = zoo::makeBenchmark("Snort", cfg);
    const size_t slice = b.input.size() / 3;
    obs::Registry &reg = obs::Registry::global();
    for (EngineKind eng : {EngineKind::kNfa, EngineKind::kAuto}) {
        SCOPED_TRACE(static_cast<int>(eng));
        // What compiling one program costs, and the tables it holds,
        // on a standalone one.
        uint64_t before = reg.counterValue("engine.nfa.compiles");
        const size_t sharedBytes =
            compileProgram(eng, b.automaton)->footprintBytes();
        const uint64_t perProgram =
            reg.counterValue("engine.nfa.compiles") - before;

        before = reg.counterValue("engine.nfa.compiles");
        MatchSessionPool pool(b.automaton, eng);
        std::vector<std::unique_ptr<PlannedSession>> sessions;
        for (int i = 0; i < 3; ++i)
            sessions.push_back(pool.acquire());
        EXPECT_EQ(pool.created(), 3u);
        if (obs::kEnabled) {
            EXPECT_GT(perProgram, 0u);
            EXPECT_EQ(reg.counterValue("engine.nfa.compiles") - before,
                      perProgram);
        }

        // Interleaved feeds: three streams live on one program.
        for (size_t pos = 0; pos < slice; pos += 1000) {
            for (size_t i = 0; i < 3; ++i) {
                sessions[i]->feed(b.input.data() + i * slice + pos,
                                  std::min<size_t>(1000, slice - pos));
            }
        }
        for (size_t i = 0; i < 3; ++i) {
            // Were the shared tables counted, every session would
            // hold at least the whole program.
            EXPECT_LT(sessions[i]->footprintBytes(), sharedBytes) << i;
            const SimResult got = sessions[i]->results();
            const SimResult want =
                serialRun(b.automaton, b.input.data() + i * slice, slice);
            EXPECT_EQ(got.symbols, want.symbols) << i;
            EXPECT_EQ(got.reportCount, want.reportCount) << i;
            EXPECT_EQ(got.reports, want.reports) << i;
        }
        for (auto &s : sessions)
            pool.release(std::move(s));
    }
}

// ---------------------------------------------------------------
// Hot ruleset reload.

/** Poll @p pred for up to @p ms milliseconds. */
template <typename Pred>
bool
waitFor(Pred pred, int ms)
{
    for (int i = 0; i < ms / 5 + 1; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

TEST(ServeReload, RemoteReloadSwapsGenerationAtomically)
{
    const Automaton a = testAutomaton();
    const Automaton b = altAutomaton();
    const std::string pathB = writeRulesetFile("reload_b.azml", b);
    ServerHarness h(a);
    EXPECT_EQ(h.server().epoch(), 1u);

    const auto in = testPayload(1, 32 << 10);
    {
        Client c;
        ASSERT_TRUE(c.connect(h.addr()).ok());
        ASSERT_TRUE(c.open(0).ok());
        ASSERT_TRUE(c.admitted());
        EXPECT_EQ(c.epoch(), 1u);
        ASSERT_TRUE(c.send(in).ok());
        Expected<Reply> r = c.finish();
        ASSERT_TRUE(r.ok()) << r.status().str();
        const SimResult want = serialRun(a, in.data(), in.size());
        EXPECT_EQ(r->reports, want.reports);
    }

    Client ctl;
    ASSERT_TRUE(ctl.connect(h.addr()).ok());
    Expected<Reply> rr = ctl.reload(pathB);
    ASSERT_TRUE(rr.ok()) << rr.status().str();
    EXPECT_EQ(rr->status, ReplyStatus::kOk);
    EXPECT_EQ(h.server().epoch(), 2u);
    ctl.close(); // don't leave a lingering conn to slow the drain

    {
        Client c;
        ASSERT_TRUE(c.connect(h.addr()).ok());
        ASSERT_TRUE(c.open(0).ok());
        ASSERT_TRUE(c.admitted());
        EXPECT_EQ(c.epoch(), 2u);
        ASSERT_TRUE(c.send(in).ok());
        Expected<Reply> r = c.finish();
        ASSERT_TRUE(r.ok()) << r.status().str();
        const SimResult want = serialRun(b, in.data(), in.size());
        EXPECT_EQ(r->reportCount, want.reportCount);
        EXPECT_EQ(r->reports, want.reports);
    }

    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().reloads, 1u);
    EXPECT_EQ(h.server().stats().reloadFailures, 0u);
}

TEST(ServeReload, FailedReloadKeepsServingOldGeneration)
{
    const Automaton a = testAutomaton();
    ServerHarness h(a);

    // Nonexistent file: the load fails, nothing is published.
    {
        Client ctl;
        ASSERT_TRUE(ctl.connect(h.addr()).ok());
        Expected<Reply> rr =
            ctl.reload(testing::TempDir() + "/no-such-ruleset.azml");
        ASSERT_TRUE(rr.ok()) << rr.status().str();
        EXPECT_EQ(rr->status, ReplyStatus::kServerError);
        EXPECT_NE(rr->detail, ErrorCode::kOk);
    }
    EXPECT_EQ(h.server().epoch(), 1u);

    // Malformed file: parse failure, same outcome.
    const std::string bad = testing::TempDir() + "/garbage.azml";
    {
        std::ofstream out(bad, std::ios::binary | std::ios::trunc);
        out << "this is not an azml ruleset\n";
    }
    {
        Client ctl;
        ASSERT_TRUE(ctl.connect(h.addr()).ok());
        Expected<Reply> rr = ctl.reload(bad);
        ASSERT_TRUE(rr.ok()) << rr.status().str();
        EXPECT_EQ(rr->status, ReplyStatus::kServerError);
    }
    EXPECT_EQ(h.server().epoch(), 1u);

    // The old generation still serves exactly.
    const auto in = testPayload(2, 16 << 10);
    const Reply r = runOneSession(h.addr(), in);
    const SimResult want = serialRun(a, in.data(), in.size());
    EXPECT_EQ(r.reports, want.reports);

    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_EQ(h.server().stats().reloads, 0u);
    EXPECT_EQ(h.server().stats().reloadFailures, 2u);
}

TEST(ServeReload, RemoteReloadCanBeDisabled)
{
    const Automaton a = testAutomaton();
    const std::string pathB =
        writeRulesetFile("reload_disabled.azml", altAutomaton());
    ServerOptions opts;
    opts.remoteReload = false;
    ServerHarness h(a, opts);

    Client ctl;
    ASSERT_TRUE(ctl.connect(h.addr()).ok());
    Expected<Reply> rr = ctl.reload(pathB);
    ASSERT_TRUE(rr.ok()) << rr.status().str();
    EXPECT_EQ(rr->status, ReplyStatus::kServerError);
    EXPECT_EQ(rr->detail, ErrorCode::kUnsupported);
    EXPECT_EQ(h.server().epoch(), 1u);
}

TEST(ServeReload, RequestReloadTriggersSwapLikeSighup)
{
    const Automaton a = testAutomaton();
    const Automaton b = altAutomaton();
    const std::string pathB =
        writeRulesetFile("reload_external.azml", b);
    ServerHarness h(a);

    // requestReload() is the in-process twin of the SIGHUP trigger:
    // same queue, same off-loop load, same publication.
    h.server().requestReload(pathB);
    ASSERT_TRUE(waitFor([&] { return h.server().epoch() == 2; }, 5000));

    const auto in = testPayload(3, 16 << 10);
    Client c;
    ASSERT_TRUE(c.connect(h.addr()).ok());
    ASSERT_TRUE(c.open(0).ok());
    ASSERT_TRUE(c.admitted());
    EXPECT_EQ(c.epoch(), 2u);
    ASSERT_TRUE(c.send(in).ok());
    Expected<Reply> r = c.finish();
    ASSERT_TRUE(r.ok()) << r.status().str();
    const SimResult want = serialRun(b, in.data(), in.size());
    EXPECT_EQ(r->reports, want.reports);
}

TEST(ServeReload, ReloadKeepsTheGenerationsSpec)
{
    // The engine and plan live in the generation, not in
    // ServerOptions: a server started on a planned generation with
    // default options reloads into a planned generation, whose first
    // session plans every component of the new ruleset.
    const Automaton a = testAutomaton();
    const Automaton b = altAutomaton();
    const std::string pathB = writeRulesetFile("reload_spec.azml", b);
    RulesetSpec spec;
    spec.engine = EngineKind::kAuto;
    ServerHarness h(makeInlineRuleset(a, spec));

    h.server().requestReload(pathB);
    ASSERT_TRUE(waitFor([&] { return h.server().epoch() == 2; }, 5000));

    obs::Registry &reg = obs::Registry::global();
    auto planned = [&] {
        uint64_t n = 0;
        for (size_t k = 0; k < kPlanBackends; ++k) {
            n += reg.counterValue(
                cat("planner.assignments.",
                    planBackendName(static_cast<PlanBackend>(k))));
        }
        return n;
    };
    const uint64_t before = planned();
    const auto in = testPayload(6, 16 << 10);
    Client c;
    ASSERT_TRUE(c.connect(h.addr()).ok());
    ASSERT_TRUE(c.open(0).ok());
    ASSERT_TRUE(c.admitted());
    EXPECT_EQ(c.epoch(), 2u);
    ASSERT_TRUE(c.send(in).ok());
    Expected<Reply> r = c.finish();
    ASSERT_TRUE(r.ok()) << r.status().str();
    EXPECT_EQ(r->reports, serialRun(b, in.data(), in.size()).reports);
    if (obs::kEnabled) {
        uint32_t components = 0;
        b.connectedComponents(components);
        EXPECT_EQ(planned() - before, components);
    }
}

TEST(ServeReload, InFlightSessionsFinishOnTheirOpeningGeneration)
{
    const Automaton a = testAutomaton();
    const Automaton b = altAutomaton();
    const std::string pathB = writeRulesetFile("reload_pin.azml", b);
    ServerHarness h(a);

    const auto in = testPayload(4, 32 << 10);
    const size_t half = in.size() / 2;

    // Open under generation 1 and stream half the payload.
    Client c1;
    ASSERT_TRUE(c1.connect(h.addr()).ok());
    ASSERT_TRUE(c1.open(0).ok());
    ASSERT_TRUE(c1.admitted());
    EXPECT_EQ(c1.epoch(), 1u);
    ASSERT_TRUE(c1.send(in.data(), half).ok());

    // Swap while c1 is mid-stream.
    Client ctl;
    ASSERT_TRUE(ctl.connect(h.addr()).ok());
    Expected<Reply> rr = ctl.reload(pathB);
    ASSERT_TRUE(rr.ok()) << rr.status().str();
    ASSERT_EQ(rr->status, ReplyStatus::kOk);
    // Both generations are live: the new one published, the old one
    // pinned by c1.
    EXPECT_EQ(h.server().liveGenerations(), 2u);

    // A session admitted after the swap runs the new ruleset...
    Client c2;
    ASSERT_TRUE(c2.connect(h.addr()).ok());
    ASSERT_TRUE(c2.open(0).ok());
    ASSERT_TRUE(c2.admitted());
    EXPECT_EQ(c2.epoch(), 2u);
    ASSERT_TRUE(c2.send(in).ok());
    Expected<Reply> r2 = c2.finish();
    ASSERT_TRUE(r2.ok()) << r2.status().str();
    EXPECT_EQ(r2->reports, serialRun(b, in.data(), in.size()).reports);

    // ...while c1 finishes bit-identically on the generation it
    // opened under — never migrated, never dropped.
    ASSERT_TRUE(c1.send(in.data() + half, in.size() - half).ok());
    Expected<Reply> r1 = c1.finish();
    ASSERT_TRUE(r1.ok()) << r1.status().str();
    EXPECT_EQ(r1->status, ReplyStatus::kOk);
    EXPECT_EQ(r1->reports, serialRun(a, in.data(), in.size()).reports);

    // With c1 gone, the retired generation's pins drain and it is
    // destroyed: no pin leak.
    c1.close();
    EXPECT_TRUE(waitFor(
        [&] { return h.server().liveGenerations() == 1; }, 5000));
}

TEST(ServeReload, SoakSwapsServeEveryGenerationExactly)
{
    // The reload soak: many concurrent (chaos-faulted, where the
    // build has fault injection) sessions across repeated swaps.
    // Invariants: every reply carrying a result is bit-identical to a
    // serial run against the generation the session opened under (the
    // ADMIT epoch says which), no admitted session is dropped by a
    // swap, and retired generations drain to destruction.
    const Automaton a = testAutomaton();
    const Automaton b = altAutomaton();
    const std::string pathA = writeRulesetFile("soak_a.azml", a);
    const std::string pathB = writeRulesetFile("soak_b.azml", b);
    ServerHarness h(a);

#if AZOO_FAULT_INJECTION
    fault::armRandom(fault::Point::kSessionDrop, 77, 10);
    fault::armRandom(fault::Point::kSlowConsumer, 88, 60);
#endif

    constexpr size_t kSwaps = 12;
    constexpr size_t kThreads = 8;
    constexpr size_t kPerThread = 30; // 240 sessions total
    std::atomic<uint64_t> swapsDone{0};
    std::thread reloader([&] {
        for (size_t i = 0; i < kSwaps; ++i) {
            Client ctl;
            if (!ctl.connect(h.addr()).ok())
                break;
            // Alternate B, A, B, ... so epoch parity names the
            // automaton: odd epochs are A, even are B.
            Expected<Reply> r =
                ctl.reload((i % 2) ? pathA : pathB, 20000);
            if (r.ok() && r->status == ReplyStatus::kOk)
                ++swapsDone;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });

    std::atomic<uint64_t> checked{0}, okFull{0}, transport{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = 0; i < kPerThread; ++i) {
                const auto in = testPayload(t * 1000 + i, 4096);
                Client c;
                if (!c.connect(h.addr()).ok()) {
                    ++transport;
                    continue;
                }
                if (!c.open(0, 10000).ok()) {
                    ++transport;
                    continue;
                }
                if (!c.admitted())
                    continue;
                const uint64_t e = c.epoch();
                ASSERT_GE(e, 1u);
                (void)c.send(in);
                Expected<Reply> r = c.finish(20000);
                if (!r.ok()) {
                    ++transport; // injected drop; promised nothing
                    continue;
                }
                if (!replyCarriesResult(r->status))
                    continue;
                const Automaton &g = (e % 2) ? a : b;
                ASSERT_LE(r->symbols, in.size());
                const SimResult want =
                    serialRun(g, in.data(), r->symbols);
                ASSERT_EQ(r->reportCount, want.reportCount);
                ASSERT_EQ(r->reports, want.reports);
                ++checked;
                if (r->status == ReplyStatus::kOk)
                    ++okFull;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    reloader.join();
#if AZOO_FAULT_INJECTION
    fault::disarmAll();
#endif

    EXPECT_GE(swapsDone.load(), 10u);
    EXPECT_GT(checked.load(), 0u);
    EXPECT_GT(okFull.load(), (kThreads * kPerThread) / 2);

    // No pin leak: with every session finished, only the current
    // generation may remain alive.
    EXPECT_TRUE(waitFor(
        [&] { return h.server().liveGenerations() == 1; }, 10000))
        << h.server().liveGenerations() << " generations still live";

    EXPECT_EQ(h.shutdown(), 0);
    EXPECT_GE(h.server().stats().reloads, 10u);
}

#if AZOO_FAULT_INJECTION

struct FaultScope {
    ~FaultScope() { fault::disarmAll(); }
};

TEST(ServeChaos, InjectedFaultsNeverForgeResults)
{
    FaultScope scope;
    const Automaton a = testAutomaton();
    ServerOptions opts;
    opts.limits.sessionSymbolBudget = 100000; // exercised rarely
    ServerHarness h(a, opts);

    // All three service fault points on seeded Bernoulli schedules.
    fault::armRandom(fault::Point::kAcceptFail, 11, 30);
    fault::armRandom(fault::Point::kSessionDrop, 22, 15);
    fault::armRandom(fault::Point::kSlowConsumer, 33, 80);

    constexpr size_t kSessions = 1000;
    constexpr size_t kThreads = 4;
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> okCount{0}, resultChecked{0},
        transportFailures{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&] {
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= kSessions)
                    return;
                const auto in = testPayload(i, 2048);
                Client c;
                if (!c.connect(h.addr()).ok()) {
                    ++transportFailures;
                    continue;
                }
                if (!c.open(0, 5000).ok()) {
                    // Injected accept-fail / session-drop severed the
                    // connection before admission: allowed, promised
                    // nothing.
                    ++transportFailures;
                    continue;
                }
                if (!c.admitted())
                    continue;
                (void)c.send(in);
                Expected<Reply> r = c.finish(10000);
                if (!r.ok()) {
                    // Dropped mid-session without a REPLY: the one
                    // legal way to lose a session under kSessionDrop.
                    ++transportFailures;
                    continue;
                }
                // THE chaos invariant: any reply claiming a result is
                // bit-identical to the serial engine over the prefix
                // it claims, no matter which faults fired around it.
                if (replyCarriesResult(r->status)) {
                    ASSERT_LE(r->symbols, in.size());
                    const SimResult want =
                        serialRun(a, in.data(), r->symbols);
                    ASSERT_EQ(r->reportCount, want.reportCount);
                    ASSERT_EQ(r->reports, want.reports);
                    ++resultChecked;
                    if (r->status == ReplyStatus::kOk) {
                        ASSERT_EQ(r->symbols, in.size());
                        ++okCount;
                    }
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    fault::disarmAll();
    EXPECT_EQ(h.shutdown(), 0);

    // The schedules must have actually bitten, and most sessions must
    // still have completed exactly.
    EXPECT_GT(transportFailures.load(), 0u);
    EXPECT_GT(okCount.load(), kSessions / 2);
    EXPECT_EQ(h.server().stats().sessionDrops +
                  h.server().stats().acceptErrors,
              transportFailures.load());
    EXPECT_GT(resultChecked.load(), 0u);
}

#endif // AZOO_FAULT_INJECTION

} // namespace
} // namespace serve
} // namespace azoo
