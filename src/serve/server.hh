/**
 * @file
 * The azoo_serve daemon core: a poll-driven event loop multiplexing
 * framed match sessions onto the engine stack.
 *
 * One thread (run()) owns every socket and all connection state; a
 * ThreadPool executes engine feeds. The split keeps the loop
 * responsive under heavy matching: the loop never touches an
 * automaton, workers never touch a socket. They meet at exactly two
 * synchronization points — a per-connection bounded inbox (loop
 * appends DATA payloads, worker drains them through the engine
 * session) and a completion queue drained through a wake pipe (worker
 * finishes, loop builds the REPLY).
 *
 * Robustness posture, in the order things go wrong:
 *
 *  - Admission (SessionManager): a connection costs nothing until its
 *    OPEN; at OPEN the server either admits within its session/memory
 *    budget, sheds a strictly-lower-priority session (explicit
 *    kShedOverload reply), or rejects with the exhausted resource in
 *    the status. Memory use is bounded by construction, so overload
 *    degrades service instead of OOMing the process.
 *
 *  - Backpressure: each session may buffer at most queueBudgetBytes
 *    of un-processed input; past that the loop stops polling the
 *    socket for reads until the worker catches up, pushing the queue
 *    into the kernel and eventually stalling the client's writes.
 *    A fast client cannot inflate the daemon.
 *
 *  - QoS (RunGuard): per-session deadline / symbol budget. A guarded
 *    stop is not an error: the session replies kTruncated with the
 *    stop reason and an exact result over the consumed prefix. Idle
 *    sessions (admitted, then silent) hit the same deadline from the
 *    loop's timer.
 *
 *  - Drain (SIGTERM / requestShutdown()): stop accepting, reject new
 *    OPENs with kRejectedDrain, let in-flight sessions finish until
 *    the drain deadline, then force kShedDrain replies with
 *    results-so-far. Every admitted session gets a REPLY; run()
 *    returns 0.
 *
 *  - Chaos (azoo::fault): kAcceptFail, kSessionDrop, kSlowConsumer
 *    are checked on the corresponding paths so the serve tests can
 *    inject connection-level misbehaviour deterministically.
 *
 * Hot ruleset reload (SIGHUP, a RELOAD control frame, or
 * requestReload()): the new ruleset is loaded against the current
 * generation's spec, verified, and its session pool built on a
 * worker thread; the loop then publishes it between poll rounds —
 * new admissions pin the new generation while in-flight sessions
 * finish on the one they opened under, which is destroyed when its
 * last pin drops. No admitted session is ever dropped or migrated
 * by a swap. docs/ARCHITECTURE.md "Hot ruleset reload" states the
 * ordering guarantees.
 *
 * The failure taxonomy (who promised what when a session ends each
 * way) is documented in docs/ARCHITECTURE.md "Running as a service".
 */

#ifndef AZOO_SERVE_SERVER_HH
#define AZOO_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/automaton.hh"
#include "engine/run_guard.hh"
#include "serve/protocol.hh"
#include "serve/ruleset.hh"
#include "serve/session_manager.hh"
#include "util/net.hh"
#include "util/thread_pool.hh"

namespace azoo {

class ThreadPool;

namespace serve {

/** Server configuration (tool flags map 1:1 onto these; --engine and
 *  --no-prefilter belong to the generation's RulesetSpec). */
struct ServerOptions {
    /** Listen address: "unix:PATH" or "tcp:PORT" (0 picks a port). */
    std::string addr = "tcp:0";
    ServeLimits limits;
    /** Engine worker threads (0 = hardware concurrency). */
    size_t workers = 0;
    /** Drain grace: in-flight sessions get this long after a drain
     *  request before being shed with kShedDrain. */
    int64_t drainDeadlineMs = 5000;
    /** After a REPLY (or to flush one), how long to keep the socket
     *  around for the peer to read it / finish sending. */
    int64_t lingerMs = 2000;
    /** Handshake deadline: a connection that sends no OPEN within
     *  this long of accept() is closed (0 = none). Bounds the fds and
     *  FrameReader memory a never-opening client can pin. */
    int64_t openTimeoutMs = 5000;
    /** Cap on accepted-but-not-yet-admitted connections; accepts past
     *  it are closed immediately (admission applies only at OPEN, so
     *  this is the pre-admission bound). */
    size_t maxPendingConns = 256;
    /** Listener poll pause after an accept() error (EMFILE etc.), so
     *  a hot POLLIN on an un-acceptable listener cannot busy-spin the
     *  loop. */
    int64_t acceptBackoffMs = 100;
    /** Periodic obs snapshot destination ("" = none). */
    std::string metricsFile;
    int64_t metricsIntervalMs = 1000;
    /** Ruleset file a SIGHUP-triggered reload re-reads ("" disables
     *  the signal trigger; the tool defaults it to the startup
     *  ruleset path). */
    std::string reloadPath;
    /** Accept RELOAD control frames from clients. Off, a RELOAD is
     *  answered kServerError/kUnsupported (SIGHUP still works). */
    bool remoteReload = true;
};

/** Event-loop counters for tests and the tool's exit report. Reads
 *  are only meaningful after run() returns (loop-thread owned). */
struct ServerStats {
    uint64_t accepted = 0;       ///< connections accepted
    uint64_t admitted = 0;       ///< sessions past admission
    uint64_t rejected = 0;       ///< OPENs rejected (busy/memory/drain)
    uint64_t shed = 0;           ///< admitted sessions shed
    uint64_t replied = 0;        ///< REPLY frames fully sent
    uint64_t protocolErrors = 0; ///< kProtocolError replies
    uint64_t aborted = 0;        ///< client vanished before its REPLY
    uint64_t acceptErrors = 0;   ///< accept() failures (incl. injected)
    uint64_t sessionDrops = 0;   ///< injected kSessionDrop closes
    uint64_t pendingClosed = 0;  ///< accepts closed at maxPendingConns
    uint64_t openTimeouts = 0;   ///< conns closed awaiting OPEN
    uint64_t reloads = 0;        ///< generations published after start
    uint64_t reloadFailures = 0; ///< reloads rejected (load/verify)
    size_t peakQueueBytes = 0;   ///< max per-session inbox high-water
    uint64_t drainNs = 0;        ///< drain-request-to-exit wall time
};

/**
 * One server instance. Lifecycle: construct, start() (binds; port()
 * becomes valid), run() on any thread (blocks until drained),
 * requestShutdown() from any thread (or SIGTERM via
 * net::installTermHandlers() in the tool).
 */
class Server
{
  public:
    /** Serve @p gen (epoch 1 of this instance; must not be null).
     *  Its spec (engine, plan, parse limits) is the server's: every
     *  reload compiles against the current generation's spec. */
    Server(RulesetGeneration gen, ServerOptions opts);

    /** Compatibility: wrap @p a (copied) in an inline generation with
     *  the default spec (kNfa). */
    Server(const Automaton &a, ServerOptions opts);

    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen. */
    Status start();

    /**
     * Event loop; blocks until a drain completes. Returns the
     * process exit code: 0 after a clean drain (even when sessions
     * were shed — they got explicit replies), non-zero only on a
     * fatal setup/loop error.
     */
    int run();

    /** Begin a graceful drain (thread-safe, idempotent). */
    void requestShutdown();

    /** Queue a hot reload from @p path (thread-safe; processed on
     *  the loop like a SIGHUP trigger). Reloads are serialized:
     *  concurrent requests apply one at a time in arrival order. */
    void requestReload(std::string path);

    /** Bound TCP port (after start(); 0 for unix sockets). */
    uint16_t port() const { return port_; }

    /** Effective admission capacity (after construction). */
    size_t capacity() const { return manager_.capacity(); }

    /** Epoch of the currently published generation (thread-safe). */
    uint64_t epoch() const { return registry_.epoch(); }

    /** Generations still alive: the current one plus any retired
     *  generations pinned by in-flight sessions (thread-safe; the
     *  no-pin-leak tests poll this back down to 1). */
    size_t liveGenerations() const
    {
        return registry_.liveGenerations();
    }

    const ServerStats &stats() const { return stats_; }

  private:
    using Clock = std::chrono::steady_clock;
    using TimePoint = Clock::time_point;

    /** Connection / session state machine. */
    enum class ConnState : uint8_t {
        kAwaitOpen, ///< accepted; no OPEN yet
        kStreaming, ///< admitted; DATA flowing
        kReplying,  ///< REPLY queued; flushing outbox
        kLingering, ///< REPLY sent; draining reads until EOF/deadline
        kDead,      ///< to be reaped this loop round
    };

    struct Conn {
        net::Fd fd;
        uint64_t id = 0;
        ConnState state = ConnState::kAwaitOpen;
        uint8_t priority = 0;

        FrameReader reader;
        bool finReceived = false;
        bool sawEof = false;
        /** A RELOAD control frame is pending its REPLY. */
        bool reloadRequested = false;

        /** Inbox: DATA payload chunks queued for the worker. The
         *  mutex guards chunks/inboxBytes/busy; everything else is
         *  loop-thread-only. */
        std::mutex mutex;
        std::deque<std::vector<uint8_t>> chunks;
        size_t inboxBytes = 0;
        bool busy = false;     ///< a worker task owns session right now
        bool finQueued = false; ///< worker should finalize after drain

        bool paused = false; ///< POLLIN de-armed (backpressure)

        /** Generation pin, taken at OPEN: the pool (and through it
         *  the CompiledRuleset) this session runs against. Declared
         *  before session so the session dies first. Sessions are
         *  always released to *this* pool, never the server's
         *  current one — pooled sessions cannot cross rulesets. */
        std::shared_ptr<MatchSessionPool> pool;
        std::unique_ptr<PlannedSession> session;
        RunGuard guard;

        /** Forced outcome (shed/drain/idle-deadline); kOk = none. */
        ReplyStatus forced = ReplyStatus::kOk;
        ErrorCode forcedDetail = ErrorCode::kOk;
        bool replyQueued = false;

        std::vector<uint8_t> outbox;
        size_t outPos = 0;

        TimePoint deadlineAt{};   ///< session QoS deadline (0 = none)
        TimePoint lingerUntil{};  ///< kReplying/kLingering cutoff
    };

    // Event-loop steps (loop thread only).
    void acceptAll();
    void onReadable(Conn &c);
    void onWritable(Conn &c);
    void handleFrame(Conn &c, const Frame &f);
    void handleOpen(Conn &c, const Frame &f);
    void handleReload(Conn &c, const Frame &f);
    void startNextReload();
    void finishReload();
    void maybeDispatch(Conn &c);
    void onWorkerDone(Conn &c);
    void queueReply(Conn &c, ReplyStatus status, ErrorCode detail);
    void finishSession(Conn &c);
    void protocolError(Conn &c);
    void closeConn(Conn &c, bool abortive);
    void shedSession(Conn &c, ReplyStatus status);
    void beginDrain();
    void enforceTimers(TimePoint now);
    int pollTimeoutMs(TimePoint now) const;
    void writeMetrics();
    void updateGauges();

    ServerOptions opts_;
    /** Publication point for generations; epoch() and
     *  liveGenerations() read it from any thread. */
    RulesetRegistry registry_;
    /** The pool new admissions draw from; swapped wholesale (on the
     *  loop thread) by a reload. Old pools die when their last
     *  pinning Conn is reaped. */
    std::shared_ptr<MatchSessionPool> pool_;
    SessionManager manager_;
    std::unique_ptr<ThreadPool> workers_;

    /** Worker-to-loop result of one reload job. */
    struct ReloadResult {
        Status st;
        RulesetGeneration gen;
        std::shared_ptr<MatchSessionPool> pool;
        uint64_t connId = 0; ///< control conn awaiting the REPLY (0 = none)
        TimePoint started{};
    };

    // Reload pipeline. The queue + in-flight flag are loop-thread
    // only; the result slot and external-request list are the two
    // cross-thread hand-offs (both wake the loop through the pipe).
    std::deque<std::pair<uint64_t, std::string>> reloadQueue_;
    bool reloadInFlight_ = false;
    std::mutex reloadMutex_;
    std::unique_ptr<ReloadResult> reloadResult_;
    std::mutex externalReloadMutex_;
    std::vector<std::string> externalReloads_;

    net::Fd listener_;
    uint16_t port_ = 0;

    /** Worker-to-loop completion channel. */
    net::Fd wakeRead_, wakeWrite_;
    std::mutex completionsMutex_;
    std::vector<uint64_t> completions_;

    std::atomic<bool> shutdownRequested_{false};
    bool draining_ = false;
    TimePoint drainStarted_{};
    TimePoint drainDeadlineAt_{};
    TimePoint hardStopAt_{};
    TimePoint nextMetricsAt_{};
    TimePoint acceptBackoffUntil_{};

    std::vector<std::unique_ptr<Conn>> conns_;
    uint64_t nextId_ = 1;

    ServerStats stats_;
};

} // namespace serve
} // namespace azoo

#endif // AZOO_SERVE_SERVER_HH
