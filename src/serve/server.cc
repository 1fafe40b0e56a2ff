#include "serve/server.hh"

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace azoo {
namespace serve {

namespace {

/** Cached obs instruments (hot paths must not hit the registry
 *  mutex). docs/ARCHITECTURE.md lists the serve.* names. */
struct ServeMetrics {
    obs::Gauge &active;
    obs::Counter &admitted;
    obs::Counter &rejected;
    obs::Counter &shed;
    obs::Gauge &queueDepth;
    obs::Gauge &drainNs;
    obs::Counter &acceptErrors;
    obs::Counter &reloadCount;
    obs::Counter &reloadFailures;
    obs::Gauge &reloadEpoch;
    obs::Gauge &generationsLive;
    obs::Gauge &pinnedOld;
    obs::Histogram &reloadNs;

    static ServeMetrics &
    get()
    {
        static ServeMetrics m{
            obs::Registry::global().gauge("serve.sessions.active"),
            obs::Registry::global().counter("serve.sessions.admitted"),
            obs::Registry::global().counter("serve.sessions.rejected"),
            obs::Registry::global().counter("serve.sessions.shed"),
            obs::Registry::global().gauge("serve.queue.depth"),
            obs::Registry::global().gauge("serve.drain.ns"),
            obs::Registry::global().counter("serve.accept.errors"),
            obs::Registry::global().counter("serve.reload.count"),
            obs::Registry::global().counter("serve.reload.failures"),
            obs::Registry::global().gauge("serve.reload.epoch"),
            obs::Registry::global().gauge(
                "serve.reload.generations_live"),
            obs::Registry::global().gauge("serve.reload.pinned_old"),
            obs::Registry::global().histogram("serve.reload.ns"),
        };
        return m;
    }
};

constexpr uint64_t kWakeShutdown = ~uint64_t(0);
/** Completion-queue sentinel: a reload job finished; its result
 *  waits in reloadResult_. */
constexpr uint64_t kWakeReload = ~uint64_t(0) - 1;

/** Read chunk size for connection sockets. */
constexpr size_t kReadChunk = 16u << 10;

/** Re-arm reads once the inbox drains to half its budget (hysteresis
 *  so a session hovering at the budget does not flap). */
size_t
resumeThreshold(size_t budget)
{
    return budget / 2;
}

int64_t
msUntilImpl(std::chrono::steady_clock::time_point now,
            std::chrono::steady_clock::time_point at)
{
    using namespace std::chrono;
    if (at <= now)
        return 0;
    return duration_cast<milliseconds>(at - now).count() + 1;
}

void
put64le(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
get32le(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
        (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace

Server::Server(RulesetGeneration gen, ServerOptions opts)
    : opts_(std::move(opts)), registry_(gen),
      pool_(std::make_shared<MatchSessionPool>(
          std::move(gen), opts_.limits.maxReportRecords)),
      manager_(opts_.limits, pool_->estimatedSessionBytes())
{
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0)
        panic("Server: pipe2 failed");
    wakeRead_ = net::Fd(fds[0]);
    wakeWrite_ = net::Fd(fds[1]);
}

Server::Server(const Automaton &a, ServerOptions opts)
    : Server(makeInlineRuleset(a, RulesetSpec()), std::move(opts))
{
}

Server::~Server()
{
    // Join workers first: in-flight tasks reference conns_, the
    // completion queue, and the wake pipe, all destroyed after this.
    workers_.reset();
}

Status
Server::start()
{
    Expected<net::Fd> fd = net::listenOn(opts_.addr);
    if (!fd.ok())
        return fd.status();
    listener_ = std::move(*fd);
    port_ = net::localPort(listener_.get());
    workers_ = std::make_unique<ThreadPool>(opts_.workers);
    return Status();
}

void
Server::requestShutdown()
{
    shutdownRequested_.store(true);
    const uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_.get(), &b, 1);
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    drainStarted_ = Clock::now();
    drainDeadlineAt_ = drainStarted_ +
        std::chrono::milliseconds(opts_.drainDeadlineMs);
    hardStopAt_ = drainDeadlineAt_ +
        std::chrono::milliseconds(opts_.lingerMs);
    listener_.close();
    // Waiting sessions keep running until the drain deadline;
    // enforceTimers() sheds the stragglers.
}

void
Server::acceptAll()
{
    size_t pending = 0;
    for (const auto &cp : conns_)
        if (cp->state == ConnState::kAwaitOpen)
            ++pending;
    for (;;) {
        bool wouldBlock = false;
        Expected<net::Fd> fd = net::acceptOn(listener_.get(),
                                             wouldBlock);
        if (!fd.ok()) {
            // Transient (EMFILE etc.). The listener's POLLIN stays
            // hot until the backlog drains, so stop polling it for a
            // beat instead of spinning on the error.
            ++stats_.acceptErrors;
            ServeMetrics::get().acceptErrors.inc();
            acceptBackoffUntil_ = Clock::now() +
                std::chrono::milliseconds(opts_.acceptBackoffMs);
            return;
        }
        if (wouldBlock)
            return;
        if (fault::shouldFail(fault::Point::kAcceptFail)) {
            // Injected accept failure: the connection is torn down
            // before any session state exists.
            ++stats_.acceptErrors;
            ServeMetrics::get().acceptErrors.inc();
            continue;
        }
        if (pending >= opts_.maxPendingConns) {
            // Pre-admission cap: admission only applies at OPEN, so
            // without this a connect flood pins fds and FrameReader
            // buffers unboundedly. Close rather than queue.
            ++stats_.pendingClosed;
            continue; // fd closes as *fd goes out of scope
        }
        ++stats_.accepted;
        ++pending;
        auto c = std::make_unique<Conn>();
        c->fd = std::move(*fd);
        c->id = nextId_++;
        if (opts_.openTimeoutMs > 0)
            c->deadlineAt = Clock::now() +
                std::chrono::milliseconds(opts_.openTimeoutMs);
        conns_.push_back(std::move(c));
    }
}

void
Server::handleOpen(Conn &c, const Frame &f)
{
    if (f.len != 5 || (static_cast<uint32_t>(f.payload[1]) |
                       (static_cast<uint32_t>(f.payload[2]) << 8) |
                       (static_cast<uint32_t>(f.payload[3]) << 16) |
                       (static_cast<uint32_t>(f.payload[4]) << 24))
            != 0) {
        protocolError(c);
        return;
    }
    const uint8_t priority = f.payload[0];
    const AdmitDecision d = manager_.tryAdmit(priority, draining_);
    if (!d.admitted) {
        ++stats_.rejected;
        ServeMetrics::get().rejected.inc();
        queueReply(c, d.reject, ErrorCode::kOk);
        return;
    }
    if (d.shedVictim != kNoSession) {
        for (auto &other : conns_) {
            if (other->id == d.shedVictim) {
                shedSession(*other, ReplyStatus::kShedOverload);
                break;
            }
        }
    }
    c.priority = priority;
    // Pin the current generation: the session runs (and is released)
    // against this pool even if a reload swaps pool_ mid-session.
    c.pool = pool_;
    c.session = c.pool->acquire();
    c.guard.setDeadlineMs(opts_.limits.sessionDeadlineMs);
    c.guard.setSymbolBudget(opts_.limits.sessionSymbolBudget);
    SimOptions &so = c.session->options;
    so.guard = &c.guard;
    so.reportRecordLimit = opts_.limits.maxReportRecords;
    c.deadlineAt = TimePoint{}; // handshake deadline met
    if (opts_.limits.sessionDeadlineMs > 0)
        c.deadlineAt = Clock::now() +
            std::chrono::milliseconds(opts_.limits.sessionDeadlineMs);
    c.state = ConnState::kStreaming;
    manager_.admit(c.id, priority);
    ++stats_.admitted;
    ServeMetrics::get().admitted.inc();
    ServeMetrics::get().active.set(
        static_cast<int64_t>(manager_.active()));
    // ADMIT carries the generation epoch so the client knows which
    // ruleset answered (and reload tests can steer on it).
    std::vector<uint8_t> admit;
    put64le(admit, c.pool->epoch());
    appendFrame(c.outbox, FrameType::kAdmit, admit.data(),
                admit.size());
    onWritable(c);
}

void
Server::handleReload(Conn &c, const Frame &f)
{
    // RELOAD is valid only instead of an OPEN, once per connection.
    if (c.state != ConnState::kAwaitOpen || c.reloadRequested) {
        protocolError(c);
        return;
    }
    if (f.len < 4 || get32le(f.payload) != 0 || f.len == 4) {
        protocolError(c); // bad flags or empty path
        return;
    }
    if (!opts_.remoteReload) {
        queueReply(c, ReplyStatus::kServerError,
                   ErrorCode::kUnsupported);
        return;
    }
    if (draining_) {
        queueReply(c, ReplyStatus::kRejectedDrain,
                   ErrorCode::kCancelled);
        return;
    }
    std::string path(reinterpret_cast<const char *>(f.payload + 4),
                     f.len - 4);
    c.reloadRequested = true;
    c.deadlineAt = TimePoint{}; // loading may outlast the handshake
                                // deadline; the linger timer still
                                // bounds the reply flush
    reloadQueue_.emplace_back(c.id, std::move(path));
    startNextReload();
}

void
Server::startNextReload()
{
    if (reloadInFlight_ || reloadQueue_.empty() || draining_ ||
        !workers_)
        return;
    const uint64_t connId = reloadQueue_.front().first;
    std::string path = std::move(reloadQueue_.front().second);
    reloadQueue_.pop_front();
    reloadInFlight_ = true;
    const uint64_t epoch = registry_.epoch() + 1;
    const TimePoint started = Clock::now();
    const RulesetSpec spec = registry_.current()->spec;
    const size_t maxRecords = opts_.limits.maxReportRecords;
    workers_->post([this, connId, path = std::move(path), epoch,
                    started, spec, maxRecords] {
        // Heavy lifting off the loop: file I/O, parse, verification,
        // profile inference, pool construction.
        auto res = std::make_unique<ReloadResult>();
        res->connId = connId;
        res->started = started;
        Expected<RulesetGeneration> gen =
            loadRulesetFile(path, spec, epoch);
        if (gen.ok()) {
            res->gen = std::move(*gen);
            res->pool = std::make_shared<MatchSessionPool>(res->gen,
                                                           maxRecords);
        } else {
            res->st = gen.status();
        }
        {
            std::lock_guard<std::mutex> lock(reloadMutex_);
            reloadResult_ = std::move(res);
        }
        {
            std::lock_guard<std::mutex> lock(completionsMutex_);
            completions_.push_back(kWakeReload);
        }
        const uint8_t b = 1;
        [[maybe_unused]] ssize_t n = ::write(wakeWrite_.get(), &b, 1);
    });
}

void
Server::finishReload()
{
    std::unique_ptr<ReloadResult> res;
    {
        std::lock_guard<std::mutex> lock(reloadMutex_);
        res = std::move(reloadResult_);
    }
    reloadInFlight_ = false;
    if (!res) {
        startNextReload();
        return; // spurious wake (already consumed)
    }
    Conn *control = nullptr;
    if (res->connId != 0) {
        for (auto &cp : conns_)
            if (cp->id == res->connId) {
                control = cp.get();
                break;
            }
        // The control client may have vanished; the swap still
        // applies — RELOAD is a command, not a transaction.
    }
    if (res->st.ok()) {
        // The swap: new admissions get the new generation from here
        // on. In-flight sessions hold their Conn::pool pin; the old
        // pool (and through it the old CompiledRuleset) dies when the
        // last pinned Conn is reaped.
        pool_ = std::move(res->pool);
        registry_.publish(res->gen);
        manager_.setPerSessionBytes(pool_->estimatedSessionBytes());
        ++stats_.reloads;
        ServeMetrics::get().reloadCount.inc();
        ServeMetrics::get().reloadEpoch.set(
            static_cast<int64_t>(registry_.epoch()));
        ServeMetrics::get().reloadNs.record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - res->started)
                .count()));
        if (control && !control->replyQueued &&
            control->state != ConnState::kDead)
            queueReply(*control, ReplyStatus::kOk, ErrorCode::kOk);
    } else {
        ++stats_.reloadFailures;
        ServeMetrics::get().reloadFailures.inc();
        warn(cat("serve: reload failed: ", res->st.message()));
        if (control && !control->replyQueued &&
            control->state != ConnState::kDead)
            queueReply(*control, ReplyStatus::kServerError,
                       res->st.code());
    }
    startNextReload();
}

void
Server::requestReload(std::string path)
{
    {
        std::lock_guard<std::mutex> lock(externalReloadMutex_);
        externalReloads_.push_back(std::move(path));
    }
    const uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_.get(), &b, 1);
}

void
Server::handleFrame(Conn &c, const Frame &f)
{
    switch (f.type) {
      case FrameType::kOpen:
        if (c.state != ConnState::kAwaitOpen || c.reloadRequested) {
            // A connection that sent RELOAD is a control connection
            // for its remaining lifetime; OPEN no longer applies.
            protocolError(c);
            return;
        }
        handleOpen(c, f);
        return;

      case FrameType::kData: {
        if (c.state != ConnState::kStreaming || c.finReceived) {
            protocolError(c);
            return;
        }
        if (fault::shouldFail(fault::Point::kSessionDrop)) {
            // Injected mid-stream death: no REPLY was promised yet.
            ++stats_.sessionDrops;
            closeConn(c, true);
            return;
        }
        bool pauseNow = false;
        {
            std::lock_guard<std::mutex> lock(c.mutex);
            // takePayload() moves the reader's payload storage: the
            // chunk handed to the worker is never a second copy.
            c.chunks.push_back(c.reader.takePayload());
            c.inboxBytes += f.len;
            if (c.inboxBytes > stats_.peakQueueBytes)
                stats_.peakQueueBytes = c.inboxBytes;
            pauseNow = c.inboxBytes >= opts_.limits.queueBudgetBytes;
        }
        c.paused = pauseNow;
        maybeDispatch(c);
        return;
      }

      case FrameType::kReload:
        handleReload(c, f);
        return;

      case FrameType::kFin:
        if (c.state != ConnState::kStreaming || c.finReceived ||
            f.len != 0) {
            protocolError(c);
            return;
        }
        c.finReceived = true;
        maybeDispatch(c);
        return;

      case FrameType::kAdmit:
      case FrameType::kReply:
        protocolError(c); // server-to-client types from a client
        return;
    }
    protocolError(c);
}

void
Server::onReadable(Conn &c)
{
    uint8_t buf[kReadChunk];
    for (;;) {
        Expected<net::IoResult> r =
            net::readSome(c.fd.get(), buf, sizeof(buf));
        if (!r.ok()) {
            closeConn(c, true);
            return;
        }
        if (r->eof) {
            c.sawEof = true;
            if (c.state == ConnState::kLingering ||
                c.state == ConnState::kReplying) {
                // Peer finished; nothing more to wait for once the
                // outbox is flushed.
                if (c.outPos >= c.outbox.size())
                    closeConn(c, false);
                return;
            }
            // EOF before FIN: the client abandoned the session and
            // can no longer receive a REPLY.
            ++stats_.aborted;
            closeConn(c, true);
            return;
        }
        if (r->wouldBlock)
            return;
        if (c.state == ConnState::kLingering ||
            c.state == ConnState::kReplying) {
            // The session's outcome is already decided (reply queued
            // or sent); keep reading so a still-streaming client can
            // finish and collect it, but the bytes mean nothing now.
            continue;
        }
        c.reader.append(buf, r->n);
        Frame f;
        while ((c.state == ConnState::kAwaitOpen ||
                c.state == ConnState::kStreaming) &&
               !c.paused && c.reader.next(f)) {
            handleFrame(c, f);
        }
        if (c.state == ConnState::kDead)
            return;
        if (!c.reader.error().ok()) {
            protocolError(c);
            return;
        }
        if (c.paused)
            return; // backpressure: leave the rest in the kernel
        if (r->n < sizeof(buf))
            return;
    }
}

void
Server::maybeDispatch(Conn &c)
{
    if (!c.session || c.replyQueued)
        return;
    bool dispatch = false;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        if (!c.busy && (!c.chunks.empty() ||
                        (c.finReceived && !c.finQueued))) {
            c.busy = true;
            c.finQueued = c.finReceived;
            dispatch = true;
        }
    }
    if (!dispatch)
        return;
    Conn *conn = &c;
    const uint64_t id = c.id;
    workers_->post([this, conn, id] {
        PlannedSession &s = *conn->session;
        for (;;) {
            std::vector<uint8_t> chunk;
            {
                std::lock_guard<std::mutex> lock(conn->mutex);
                if (conn->chunks.empty())
                    break;
                chunk = std::move(conn->chunks.front());
                conn->chunks.pop_front();
                conn->inboxBytes -= chunk.size();
            }
            if (!s.stopped())
                s.feed(chunk.data(), chunk.size());
            // Once the guard stops the session, remaining chunks are
            // drained and discarded: the result covers the consumed
            // prefix and the REPLY will say why.
        }
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            conn->busy = false;
        }
        // conn must not be touched past this point: with busy clear
        // the loop may reap a disconnected Conn at any moment, so the
        // completion carries the id captured at post time.
        {
            std::lock_guard<std::mutex> lock(completionsMutex_);
            completions_.push_back(id);
        }
        const uint8_t b = 1;
        [[maybe_unused]] ssize_t n = ::write(wakeWrite_.get(), &b, 1);
    });
}

void
Server::onWorkerDone(Conn &c)
{
    if (c.state == ConnState::kDead)
        return;
    bool idle, pending, finDone;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        idle = !c.busy;
        pending = !c.chunks.empty();
        finDone = c.finQueued && c.chunks.empty();
    }
    // Backpressure un-pause is NOT done here: the run() loop's re-arm
    // pass both clears paused and parses the frames already buffered
    // in the reader — skipping that parse would strand a buffered FIN
    // with no socket event left to surface it.
    if (!idle)
        return; // re-dispatched already; its completion will follow
    if (c.replyQueued)
        return;
    if (c.forced != ReplyStatus::kOk) {
        // Shed / drain / idle-deadline decided while the worker ran.
        queueReply(c, c.forced, c.forcedDetail);
        return;
    }
    if (c.session && c.session->stopped()) {
        // Guard truncation: reply now with the exact prefix result —
        // waiting for FIN from a client that may keep streaming
        // forever would defeat the QoS bound. queueReply() fills in
        // the guard's stop reason as the detail code.
        queueReply(c, ReplyStatus::kTruncated, ErrorCode::kOk);
        return;
    }
    if (finDone && c.finReceived) {
        queueReply(c, ReplyStatus::kOk, ErrorCode::kOk);
        return;
    }
    if (pending || c.finReceived)
        maybeDispatch(c);
}

void
Server::queueReply(Conn &c, ReplyStatus status, ErrorCode detail)
{
    if (c.replyQueued || c.state == ConnState::kDead)
        return;
    Reply reply;
    reply.status = status;
    if (c.session && replyCarriesResult(status)) {
        SimResult r = c.session->results();
        if (status == ReplyStatus::kTruncated &&
            detail == ErrorCode::kOk)
            detail = r.guardStatus.code(); // guard's stop reason
        reply.symbols = r.symbols;
        reply.reportCount = r.reportCount;
        reply.reports = std::move(r.reports);
        if (reply.reports.size() > opts_.limits.maxReportRecords)
            reply.reports.resize(opts_.limits.maxReportRecords);
    }
    reply.detail = detail;
    std::vector<uint8_t> payload;
    reply.encodeTo(payload);
    appendFrame(c.outbox, FrameType::kReply, payload.data(),
                payload.size());
    c.replyQueued = true;
    c.state = ConnState::kReplying;
    c.lingerUntil = Clock::now() +
        std::chrono::milliseconds(opts_.lingerMs);
    finishSession(c);
    onWritable(c);
}

void
Server::finishSession(Conn &c)
{
    if (!c.session)
        return;
    bool busy;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        busy = c.busy;
        c.chunks.clear();
        c.inboxBytes = 0;
    }
    manager_.retire(c.id);
    ServeMetrics::get().active.set(
        static_cast<int64_t>(manager_.active()));
    if (!busy) {
        c.pool->release(std::move(c.session));
        c.session.reset();
    }
    // else: the worker still holds the session; closeConn()/reap will
    // release it once the completion arrives.
}

void
Server::protocolError(Conn &c)
{
    if (c.replyQueued) {
        closeConn(c, true);
        return;
    }
    ++stats_.protocolErrors;
    queueReply(c, ReplyStatus::kProtocolError, ErrorCode::kParseError);
}

void
Server::shedSession(Conn &c, ReplyStatus status)
{
    if (c.replyQueued || c.state == ConnState::kDead || !c.session)
        return;
    ++stats_.shed;
    ServeMetrics::get().shed.inc();
    // Retire from admission NOW, not when the reply goes out: a busy
    // victim finishes asynchronously, and until it leaves the manager
    // every higher-priority OPEN would re-select it and over-admit
    // past capacity. The socket-side reply flow stays deferred.
    manager_.retire(c.id);
    ServeMetrics::get().active.set(
        static_cast<int64_t>(manager_.active()));
    c.guard.cancel();
    bool busy;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        busy = c.busy;
    }
    if (busy) {
        // The worker sees the cancellation at its next guard poll;
        // onWorkerDone() sends the forced reply.
        c.forced = status;
        c.forcedDetail = ErrorCode::kCancelled;
        return;
    }
    queueReply(c, status, ErrorCode::kCancelled);
}

void
Server::closeConn(Conn &c, bool abortive)
{
    if (c.state == ConnState::kDead)
        return;
    (void)abortive;
    if (c.session)
        manager_.retire(c.id);
    ServeMetrics::get().active.set(
        static_cast<int64_t>(manager_.active()));
    bool busy;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        busy = c.busy;
        c.chunks.clear();
        c.inboxBytes = 0;
    }
    if (busy) {
        // Keep the Conn alive (fd closed) until the worker's
        // completion arrives; the reaper frees it then.
        c.guard.cancel();
        c.fd.close();
        c.state = ConnState::kDead;
        return;
    }
    if (c.session) {
        c.pool->release(std::move(c.session));
        c.session.reset();
    }
    c.fd.close();
    c.state = ConnState::kDead;
}

void
Server::onWritable(Conn &c)
{
    while (c.outPos < c.outbox.size()) {
        size_t len = c.outbox.size() - c.outPos;
        if (fault::shouldFail(fault::Point::kSlowConsumer))
            len = 1; // dribble: exercises partial-write resumption
        Expected<net::IoResult> r = net::writeSome(
            c.fd.get(), c.outbox.data() + c.outPos, len);
        if (!r.ok()) {
            // EPIPE/ECONNRESET: peer is gone; the REPLY (if any) is
            // undeliverable.
            if (c.replyQueued)
                ++stats_.aborted;
            closeConn(c, true);
            return;
        }
        if (r->wouldBlock)
            return; // POLLOUT re-arms via the poll set
        c.outPos += r->n;
    }
    if (c.outPos >= c.outbox.size() && c.outPos > 0) {
        c.outbox.clear();
        c.outPos = 0;
    }
    if (c.state == ConnState::kReplying && c.outbox.empty()) {
        ++stats_.replied;
        if (c.sawEof) {
            closeConn(c, false);
            return;
        }
        // Half-close our side and linger-read so the peer reliably
        // receives the REPLY even if it is still sending.
        ::shutdown(c.fd.get(), SHUT_WR);
        c.state = ConnState::kLingering;
        c.lingerUntil = Clock::now() +
            std::chrono::milliseconds(opts_.lingerMs);
    }
}

void
Server::enforceTimers(TimePoint now)
{
    for (auto &cp : conns_) {
        Conn &c = *cp;
        if (c.state == ConnState::kDead)
            continue;
        if ((c.state == ConnState::kReplying ||
             c.state == ConnState::kLingering) &&
            now >= c.lingerUntil) {
            if (c.state == ConnState::kReplying && c.replyQueued)
                ++stats_.aborted; // reply never fully flushed
            closeConn(c, true);
            continue;
        }
        if (c.state == ConnState::kAwaitOpen &&
            c.deadlineAt != TimePoint{} && now >= c.deadlineAt) {
            // Handshake deadline: connected but never sent a full
            // OPEN; nothing was promised, so just close.
            ++stats_.openTimeouts;
            closeConn(c, true);
            continue;
        }
        if (c.state == ConnState::kStreaming &&
            c.deadlineAt != TimePoint{} && now >= c.deadlineAt &&
            !c.replyQueued) {
            // Idle-session deadline: the guard only fires inside
            // feed(), so a silent client needs the loop to act.
            c.guard.cancel();
            bool busy;
            {
                std::lock_guard<std::mutex> lock(c.mutex);
                busy = c.busy;
            }
            if (busy) {
                c.forced = ReplyStatus::kTruncated;
                c.forcedDetail = ErrorCode::kDeadlineExceeded;
            } else {
                queueReply(c, ReplyStatus::kTruncated,
                           ErrorCode::kDeadlineExceeded);
            }
        }
    }
    if (draining_ && now >= drainDeadlineAt_) {
        for (auto &cp : conns_) {
            Conn &c = *cp;
            if (c.state == ConnState::kAwaitOpen) {
                queueReply(c, ReplyStatus::kRejectedDrain,
                           ErrorCode::kCancelled);
            } else if (c.state == ConnState::kStreaming &&
                       !c.replyQueued) {
                shedSession(c, ReplyStatus::kShedDrain);
            }
        }
    }
    if (draining_ && now >= hardStopAt_) {
        for (auto &cp : conns_)
            closeConn(*cp, true);
    }
}

int
Server::pollTimeoutMs(TimePoint now) const
{
    int64_t best = 60 * 1000;
    auto consider = [&](TimePoint at) {
        if (at == TimePoint{})
            return;
        const int64_t ms = msUntilImpl(now, at);
        if (ms < best)
            best = ms;
    };
    for (const auto &cp : conns_) {
        const Conn &c = *cp;
        if (c.state == ConnState::kDead)
            continue;
        if (c.state == ConnState::kReplying ||
            c.state == ConnState::kLingering)
            consider(c.lingerUntil);
        if (c.state == ConnState::kStreaming ||
            c.state == ConnState::kAwaitOpen)
            consider(c.deadlineAt);
    }
    if (draining_) {
        consider(drainDeadlineAt_);
        consider(hardStopAt_);
    }
    if (now < acceptBackoffUntil_)
        consider(acceptBackoffUntil_);
    if (!opts_.metricsFile.empty())
        consider(nextMetricsAt_);
    return static_cast<int>(best);
}

void
Server::writeMetrics()
{
    if (opts_.metricsFile.empty())
        return;
    updateGauges();
    // Truncate-rewrite: readers always see one whole JSON document
    // (the file is small and local; a rename dance is not worth a
    // temp-file litter on crash).
    std::ofstream out(opts_.metricsFile,
                      std::ios::binary | std::ios::trunc);
    if (!out)
        return;
    out << obs::Registry::global().toJson() << "\n";
}

void
Server::updateGauges()
{
    size_t depth = 0;
    size_t pinnedOld = 0;
    for (auto &cp : conns_) {
        if (cp->pool && cp->pool != pool_)
            ++pinnedOld; // session still running on a retired generation
        std::lock_guard<std::mutex> lock(cp->mutex);
        depth += cp->inboxBytes;
    }
    ServeMetrics::get().queueDepth.set(static_cast<int64_t>(depth));
    ServeMetrics::get().pinnedOld.set(
        static_cast<int64_t>(pinnedOld));
    ServeMetrics::get().generationsLive.set(
        static_cast<int64_t>(registry_.liveGenerations()));
    ServeMetrics::get().reloadEpoch.set(
        static_cast<int64_t>(registry_.epoch()));
}

int
Server::run()
{
    if (!listener_.valid() && !draining_) {
        warn("serve: run() before start()");
        return 1;
    }
    if (!opts_.metricsFile.empty()) {
        nextMetricsAt_ = Clock::now() +
            std::chrono::milliseconds(opts_.metricsIntervalMs);
    }
    std::vector<pollfd> pfds;
    std::vector<Conn *> pconns;
    for (;;) {
        if (shutdownRequested_.load() && !draining_)
            beginDrain();

        // Drain requestReload() calls into the loop-owned queue.
        {
            std::vector<std::string> ext;
            {
                std::lock_guard<std::mutex> lock(externalReloadMutex_);
                ext.swap(externalReloads_);
            }
            for (std::string &p : ext)
                reloadQueue_.emplace_back(0, std::move(p));
            if (!reloadQueue_.empty())
                startNextReload();
        }

        // Reap connections that died last round (workers done).
        for (size_t i = 0; i < conns_.size();) {
            Conn &c = *conns_[i];
            bool busy;
            {
                std::lock_guard<std::mutex> lock(c.mutex);
                busy = c.busy;
            }
            if (c.state == ConnState::kDead && !busy) {
                if (c.session && c.pool)
                    c.pool->release(std::move(c.session));
                conns_.erase(conns_.begin() +
                             static_cast<ptrdiff_t>(i));
            } else {
                ++i;
            }
        }

        if (draining_ && conns_.empty()) {
            stats_.drainNs = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - drainStarted_)
                    .count());
            ServeMetrics::get().drainNs.set(
                static_cast<int64_t>(stats_.drainNs));
            writeMetrics();
            return 0;
        }

        pfds.clear();
        pconns.clear();
        pfds.push_back(
            pollfd{net::SelfPipe::global().readFd(), POLLIN, 0});
        pfds.push_back(pollfd{wakeRead_.get(), POLLIN, 0});
        const size_t listenerIdx = pfds.size();
        // During accept-error backoff the listener is left out of the
        // poll set entirely (its POLLIN would stay hot and busy-spin);
        // pollTimeoutMs() wakes the loop when the backoff lapses.
        if (listener_.valid() && Clock::now() >= acceptBackoffUntil_)
            pfds.push_back(pollfd{listener_.get(), POLLIN, 0});
        const size_t connBase = pfds.size();
        for (auto &cp : conns_) {
            Conn &c = *cp;
            if (c.state == ConnState::kDead || !c.fd.valid())
                continue;
            short events = 0;
            if (!c.paused && !c.sawEof)
                events |= POLLIN;
            if (c.outPos < c.outbox.size())
                events |= POLLOUT;
            if (events == 0)
                continue;
            pfds.push_back(pollfd{c.fd.get(), events, 0});
            pconns.push_back(&c);
        }

        const TimePoint now = Clock::now();
        const int rc =
            ::poll(pfds.data(), pfds.size(), pollTimeoutMs(now));
        if (rc < 0 && errno != EINTR) {
            warn(cat("serve: poll failed: errno ", errno));
            return 1;
        }

        if (pfds[0].revents & POLLIN) {
            const uint32_t sigs = net::SelfPipe::global().drain();
            // A mask, not a last-signal value: HUP racing TERM must
            // not make the daemon forget either action.
            if (sigs &
                (net::sigBit(SIGTERM) | net::sigBit(SIGINT)))
                beginDrain();
            if ((sigs & net::sigBit(SIGHUP)) && !draining_) {
                if (opts_.reloadPath.empty()) {
                    warn("serve: SIGHUP with no reload path; ignored");
                } else {
                    reloadQueue_.emplace_back(0, opts_.reloadPath);
                    startNextReload();
                }
            }
        }
        if (pfds[1].revents & POLLIN) {
            uint8_t buf[64];
            while (::read(wakeRead_.get(), buf, sizeof(buf)) > 0) {
            }
            std::vector<uint64_t> done;
            {
                std::lock_guard<std::mutex> lock(completionsMutex_);
                done.swap(completions_);
            }
            for (uint64_t id : done) {
                if (id == kWakeShutdown)
                    continue;
                if (id == kWakeReload) {
                    finishReload();
                    continue;
                }
                for (auto &cp : conns_) {
                    if (cp->id == id) {
                        onWorkerDone(*cp);
                        break;
                    }
                }
            }
        }
        if (listener_.valid() && listenerIdx < connBase &&
            (pfds[listenerIdx].revents & POLLIN))
            acceptAll();

        for (size_t i = 0; i < pconns.size(); ++i) {
            Conn &c = *pconns[i];
            const short rev = pfds[connBase + i].revents;
            if (c.state == ConnState::kDead)
                continue;
            if (rev & (POLLERR | POLLNVAL)) {
                closeConn(c, true);
                continue;
            }
            if (rev & POLLOUT)
                onWritable(c);
            if (c.state == ConnState::kDead)
                continue;
            if (rev & (POLLIN | POLLHUP))
                onReadable(c);
        }

        // Backpressure re-arm for sessions whose worker drained the
        // inbox between completions.
        for (auto &cp : conns_) {
            Conn &c = *cp;
            if (!c.paused || c.state != ConnState::kStreaming)
                continue;
            bool resume;
            {
                std::lock_guard<std::mutex> lock(c.mutex);
                resume = c.inboxBytes <=
                    resumeThreshold(opts_.limits.queueBudgetBytes);
            }
            if (resume) {
                c.paused = false;
                // Buffered frames may already be complete; process
                // them without waiting for new socket bytes.
                Frame f;
                while (c.state == ConnState::kStreaming && !c.paused &&
                       c.reader.next(f))
                    handleFrame(c, f);
                if (c.state != ConnState::kDead &&
                    !c.reader.error().ok())
                    protocolError(c);
            }
        }

        enforceTimers(Clock::now());
        updateGauges();
        if (!opts_.metricsFile.empty() &&
            Clock::now() >= nextMetricsAt_) {
            writeMetrics();
            nextMetricsAt_ = Clock::now() +
                std::chrono::milliseconds(opts_.metricsIntervalMs);
        }
    }
}

} // namespace serve
} // namespace azoo
