/**
 * @file
 * azoo_perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   azoo_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --serve-bin PATH --workdir DIR [--scale X]
 *                  [--commit ID]
 *
 * One run prepares a workload (zoo rulesets compiled to `.azoox`
 * artifacts, seeded inputs, serial-NfaEngine reference digests), sets
 * it up several times, then measures for S seconds: in-process scans
 * through the public artifact / planner calls, and served sessions
 * with hot reloads against a child `azoo_serve` over TCP loopback.
 * Every result is checked against its reference. The last stdout line
 * is one JSON object: end-to-end metrics with --trace 0, per-layer
 * metrics (from spans the benchmark records around each public call)
 * with --trace 1. perfbench/README.md has the workloads, the metric
 * definitions and the metric -> layer -> workload table.
 */

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profile.hh"
#include "artifact/artifact.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "obs/obs.hh"
#include "perfbench/stats.hh"
#include "serve/client.hh"
#include "util/rng.hh"
#include "zoo/registry.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

using namespace azoo;
using namespace perfbench;

namespace {

/** Rulesets are fixed (a deployed ruleset does not change with the
 *  traffic); --seed picks the inputs. */
constexpr uint64_t kRulesetSeed = 42;
constexpr size_t kGenBytes = 1 << 20;
constexpr size_t kChunk = 4 << 10;
constexpr size_t kProbeBytes = 64 << 10;
constexpr size_t kSessionBytes = 64 << 10;
constexpr size_t kSlices = 32;
/** Server record cap: above any slice's report count, so a REPLY
 *  carries the whole canonical list, yet small enough that the REPLY
 *  fits one frame (kMaxFramePayload, 16 bytes per record). */
constexpr size_t kReportCap = 50000;
constexpr int kSetupReps = 5;
/** Measured passes alternate kSegments scan and serve segments. */
constexpr int kSegments = 4;
constexpr int kReloads = 20;
constexpr int kClients = 2;
/** One planted literal per this many input bytes. */
constexpr size_t kPlantEvery = 2 << 10;
constexpr uint8_t kPriority = 100;

// ---- workloads ------------------------------------------------------

struct RulesetSpec {
    const char *zooName;
    const char *slug;
    size_t scanBytes; ///< bytes per in-process scan input
    bool plantedRow;  ///< also scan a planted-hit copy, "<slug>-planted"
    bool plantSlices; ///< plant the session slices when served
};

struct WorkloadSpec {
    const char *name;
    std::vector<RulesetSpec> rulesets;
    size_t served;    ///< index into rulesets of the served one
    double scanShare; ///< share of --seconds spent on in-process scans
};

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> w = {
        {"scan-literal",
         {{"ClamAV", "clamav", 256 << 10, true, true},
          {"YARA", "yara", 256 << 10, true, false}},
         0, 0.5},
        {"scan-automaton",
         {{"AP PRNG 8-sided", "apprng8", 64 << 10, false, false},
          {"Brill", "brill", 64 << 10, false, true},
          {"Random Forest A", "rf-a", 32 << 10, false, false},
          {"Hamming 18x3", "hamming18x3", 32 << 10, false, false},
          {"Seq. Match 6w 6p", "seqmatch6w6p", 64 << 10, false, false}},
         1, 0.5},
        {"serve-snort", {{"Snort", "snort", 256 << 10, false, false}}, 0,
         0.2},
    };
    return w;
}

/** Every input slug any workload scans, for the row.* metrics. */
const std::vector<std::string> &
allSlugs()
{
    static const std::vector<std::string> s = [] {
        std::vector<std::string> v;
        for (const WorkloadSpec &w : workloads())
            for (const RulesetSpec &r : w.rulesets) {
                v.push_back(r.slug);
                if (r.plantedRow)
                    v.push_back(std::string(r.slug) + "-planted");
            }
        return v;
    }();
    return s;
}

// ---- options and output ---------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 0.05;
    std::string serveBin;
    std::string workdir = ".";
    std::string commit = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--scale")
            a.scale = std::stod(v);
        else if (k == "--serve-bin")
            a.serveBin = v;
        else if (k == "--workdir")
            a.workdir = v;
        else if (k == "--commit")
            a.commit = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.serveBin.empty() &&
        a.seconds > 0;
}

/** A reported metric with the spread of the samples behind it. */
struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    std::vector<double> samples; ///< per-repetition values, if any
};

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

double
msOf(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

// ---- the workload's state -------------------------------------------

struct Ref {
    uint64_t count = 0;
    uint64_t digest = 0;
};

Ref
refOf(SimResult r, size_t limit = ~size_t(0))
{
    canonicalizeReports(r);
    return {r.reportCount, reportDigest(r.reports, limit)};
}

bool
matches(const SimResult &r, const Ref &ref, size_t len)
{
    return r.guardStatus.ok() && r.symbols == len &&
        r.reportCount == ref.count && reportDigest(r.reports) == ref.digest;
}

struct Ruleset {
    RulesetSpec spec;
    std::string path;
    std::vector<uint8_t> natural;
    std::unique_ptr<Automaton> automaton;
    std::unique_ptr<NfaEngine> reference;
    std::vector<uint8_t> probe;
    Ref probeRef;
    // Live objects from the last set-up.
    std::optional<artifact::LoadedArtifact> art;
    std::unique_ptr<Automaton> loaded;
    std::unique_ptr<PlannedEngine> engine;
    std::unique_ptr<PlannedSession> session;
};

struct Input {
    std::string slug;
    Ruleset *rs = nullptr;
    std::vector<uint8_t> bytes;
    Ref ref;
};

struct Slice {
    std::vector<uint8_t> bytes;
    Ref ref; ///< digest over the first kReportCap canonical records
};

/** Operation tally behind error_rate. */
struct Tally {
    std::atomic<uint64_t> attempted{0};
    std::atomic<uint64_t> failed{0};

    void
    note(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            if (failed++ < 10)
                std::cerr << "perfbench: FAILED " << what << "\n";
        }
    }
};

/** Mandatory literals from the artifact's PROF section. */
std::vector<std::string>
plantLiterals(const artifact::LoadedArtifact &art)
{
    std::vector<std::string> out;
    for (const analysis::ComponentProfile &p : art.componentProfiles())
        if (p.mandatoryLiteral.size() >= 4)
            out.push_back(p.mandatoryLiteral);
    return out;
}

/** Copy of @p in with literals spliced in at seeded positions, one per
 *  kPlantEvery bytes. */
std::vector<uint8_t>
plant(std::vector<uint8_t> in, const std::vector<std::string> &lits,
      Rng &rng)
{
    if (lits.empty())
        return in;
    for (size_t k = 0; k < in.size() / kPlantEvery; ++k) {
        const std::string &l = rng.pick(lits);
        if (l.size() >= in.size())
            continue;
        const size_t at = rng.nextBelow(in.size() - l.size());
        std::memcpy(in.data() + at, l.data(), l.size());
    }
    return in;
}

std::vector<uint8_t>
sliceOf(const std::vector<uint8_t> &src, size_t len, Rng &rng)
{
    len = std::min(len, src.size());
    const size_t off = rng.nextBelow(src.size() - len + 1);
    return std::vector<uint8_t>(src.begin() + off, src.begin() + off + len);
}

// ---- the azoo_serve child -------------------------------------------

/**
 * A child azoo_serve. Dies with the benchmark (PR_SET_PDEATHSIG), and
 * the destructor terminates and reaps it, so no path leaves it behind.
 */
class ServerProcess
{
  public:
    ServerProcess(const std::string &bin, const std::string &artifact)
    {
        int fds[2];
        if (pipe(fds) != 0)
            return;
        const std::vector<std::string> argv_ = {
            bin, "--load", artifact, "--engine", "auto", "--workers", "2",
            "--listen", "tcp:0", "--max-report-records",
            std::to_string(kReportCap)};
        std::vector<char *> cargv;
        for (const std::string &s : argv_)
            cargv.push_back(const_cast<char *>(s.c_str()));
        cargv.push_back(nullptr);
        const pid_t parent = getpid();
        pid_ = fork();
        if (pid_ < 0) {
            close(fds[0]);
            close(fds[1]);
            return;
        }
        if (pid_ == 0) {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != parent)
                _exit(127);
            dup2(fds[1], STDOUT_FILENO);
            close(fds[0]);
            close(fds[1]);
            execv(cargv[0], cargv.data());
            _exit(127);
        }
        close(fds[1]);
        out_ = fds[0];
    }
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;
    ~ServerProcess() { stop(); }

    /** Read stdout up to the readiness line; the "tcp:PORT" address
     *  it names, or "" on timeout / early exit. */
    std::string
    waitReady(int timeoutMs)
    {
        const uint64_t deadline =
            nowNs() + static_cast<uint64_t>(timeoutMs) * 1000000;
        while (out_ >= 0 && nowNs() < deadline) {
            const size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                const std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                const std::string tag = "listening on ";
                if (line.rfind(tag, 0) == 0) {
                    std::string addr = line.substr(tag.size());
                    return addr.substr(0, addr.find(' '));
                }
                continue;
            }
            pollfd p{out_, POLLIN, 0};
            if (poll(&p, 1, 100) <= 0)
                continue;
            char tmp[512];
            const ssize_t n = read(out_, tmp, sizeof tmp);
            if (n <= 0)
                return "";
            buf_.append(tmp, static_cast<size_t>(n));
        }
        return "";
    }

    /** Peak resident set (VmHWM) in KiB; 0 when unreadable. */
    uint64_t
    vmHwmKb() const
    {
        std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(f, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stoull(line.substr(6));
        return 0;
    }

    /** SIGTERM (graceful drain), read the census, reap. True on a
     *  clean exit 0. */
    bool
    stop()
    {
        if (pid_ <= 0)
            return false;
        kill(pid_, SIGTERM);
        if (out_ >= 0) {
            char tmp[512];
            while (read(out_, tmp, sizeof tmp) > 0) {
            }
            close(out_);
            out_ = -1;
        }
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
    std::string buf_;
};

// ---- served sessions ------------------------------------------------

enum class Outcome { kOk, kTruncated, kRejected, kShed, kFailed };

struct SessionRec {
    Outcome outcome = Outcome::kFailed;
    bool correct = false;
    uint64_t latencyNs = 0;
    uint64_t replyBytes = 0;
    uint64_t reports = 0;
};

Outcome
outcomeOf(serve::ReplyStatus s)
{
    switch (s) {
      case serve::ReplyStatus::kOk: return Outcome::kOk;
      case serve::ReplyStatus::kTruncated: return Outcome::kTruncated;
      case serve::ReplyStatus::kShedOverload:
      case serve::ReplyStatus::kShedDrain: return Outcome::kShed;
      case serve::ReplyStatus::kRejectedBusy:
      case serve::ReplyStatus::kRejectedMemory:
      case serve::ReplyStatus::kRejectedDrain: return Outcome::kRejected;
      default: return Outcome::kFailed;
    }
}

/** One session: connect -> OPEN -> DATA frames -> FIN -> REPLY. */
SessionRec
runSession(const std::string &addr, const Slice &s, Tracer &tr,
           uint64_t req)
{
    SessionRec rec;
    const uint64_t t0 = nowNs();
    Scoped root(tr, "session", -1, req);
    serve::Client c;
    {
        Scoped sp(tr, "client.connect", root.id(), req);
        if (!c.connect(addr).ok())
            return rec;
    }
    {
        Scoped sp(tr, "client.open", root.id(), req);
        if (!c.open(kPriority).ok())
            return rec;
    }
    if (!c.admitted()) {
        rec.outcome = outcomeOf(c.reply().status);
        rec.latencyNs = nowNs() - t0;
        return rec;
    }
    {
        Scoped sp(tr, "client.send", root.id(), req);
        for (size_t pos = 0; pos < s.bytes.size(); pos += kChunk)
            if (!c.send(s.bytes.data() + pos,
                        std::min(kChunk, s.bytes.size() - pos))
                     .ok())
                break; // shed mid-stream: the REPLY may still come
    }
    Expected<serve::Reply> r = [&] {
        Scoped sp(tr, "client.finish", root.id(), req);
        return c.finish();
    }();
    rec.latencyNs = nowNs() - t0;
    if (!r.ok())
        return rec;
    rec.outcome = outcomeOf(r->status);
    std::vector<uint8_t> enc;
    r->encodeTo(enc);
    rec.replyBytes = enc.size();
    rec.reports = r->reportCount;
    rec.correct = rec.outcome == Outcome::kOk &&
        r->symbols == s.bytes.size() && r->reportCount == s.ref.count &&
        r->reports.size() == std::min<uint64_t>(s.ref.count, kReportCap) &&
        reportDigest(r->reports) == s.ref.digest;
    return rec;
}

/** One measured pass: kSegments alternating scan and serve segments,
 *  so both sample the whole run rather than one stretch of it. */
struct Pass {
    Pass(bool trace, size_t inputs, size_t rulesets, uint64_t firstSession)
        : trace(trace), scanTracer(trace), reloadTracer(trace),
          blockSec(inputs), streamSec(inputs), nfaSec(inputs),
          coldSec(rulesets), nextSession(firstSession)
    {
    }

    bool trace;
    Tracer scanTracer, reloadTracer;
    std::vector<Tracer> clientTracers;
    /** Per input, one sample per scan round. */
    std::vector<std::vector<double>> blockSec, streamSec, nfaSec;
    std::vector<std::vector<double>> coldSec; ///< per ruleset
    size_t scanRounds = 0;
    std::vector<SessionRec> sessions;
    std::vector<double> reloadMs;
    double serveWallSec = 0;
    uint64_t nextSession;
};

/** Closed loop: kClients connections for @p seconds, plus @p reloads
 *  RELOADs of the same artifact at evenly spaced points. */
void
serveFor(Pass &p, const std::string &addr, const std::string &artifact,
         const std::vector<Slice> &slices, double seconds, int reloads,
         Tally &tally)
{
    std::vector<Tracer> tracers(kClients, Tracer(p.trace));
    std::vector<std::vector<SessionRec>> recs(kClients);
    std::atomic<uint64_t> next{p.nextSession};
    const uint64_t start = nowNs();
    const uint64_t stopAt =
        start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            Tracer &tr = tracers[static_cast<size_t>(c)];
            while (nowNs() < stopAt) {
                const uint64_t i = next++;
                const Slice &s = slices[i % slices.size()];
                recs[static_cast<size_t>(c)].push_back(
                    runSession(addr, s, tr, i));
            }
        });
    threads.emplace_back([&] {
        Tracer &tr = p.reloadTracer;
        for (int k = 0; k < reloads; ++k) {
            const uint64_t at = start +
                static_cast<uint64_t>(seconds * 1e9 * (k + 0.5) / reloads);
            const uint64_t now = nowNs();
            if (at > now)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(at - now));
            const uint64_t t0 = nowNs();
            const uint64_t id = ~uint64_t(p.reloadMs.size());
            Scoped root(tr, "reload", -1, id);
            serve::Client c;
            bool ok = false;
            {
                Scoped sp(tr, "client.reload", root.id(), id);
                ok = c.connect(addr).ok();
                if (ok) {
                    Expected<serve::Reply> r = c.reload(artifact);
                    ok = r.ok() && r->status == serve::ReplyStatus::kOk;
                }
            }
            p.reloadMs.push_back(msOf(nowNs() - t0));
            tally.note(ok, "reload");
        }
    });
    for (std::thread &t : threads)
        t.join();
    p.serveWallSec += static_cast<double>(nowNs() - start) / 1e9;
    p.nextSession = next;
    for (auto &v : recs)
        for (const SessionRec &r : v) {
            tally.note(r.correct, "served session");
            p.sessions.push_back(r);
        }
    for (Tracer &t : tracers)
        p.clientTracers.push_back(std::move(t));
}

// ---- in-process scans -----------------------------------------------

/** Load + materialize + plan + open the session of one ruleset. */
void
setUp(Ruleset &rs, Tracer &tr, uint64_t req)
{
    Scoped root(tr, "setup", -1, req);
    {
        Scoped sp(tr, "artifact.load", root.id(), req);
        Expected<artifact::LoadedArtifact> la =
            artifact::loadArtifact(rs.path);
        if (!la.ok())
            throw std::runtime_error(la.status().str());
        rs.art.emplace(std::move(*la));
    }
    {
        Scoped sp(tr, "artifact.materialize", root.id(), req);
        Expected<Automaton> a = rs.art->materialize();
        if (!a.ok())
            throw std::runtime_error(a.status().str());
        rs.loaded = std::make_unique<Automaton>(std::move(*a));
    }
    {
        Scoped sp(tr, "planner.build", root.id(), req);
        rs.engine = std::make_unique<PlannedEngine>(
            *rs.loaded, rs.art->componentProfiles());
    }
    {
        Scoped sp(tr, "planner.session_open", root.id(), req);
        rs.session = std::make_unique<PlannedSession>(
            *rs.loaded, rs.art->componentProfiles());
    }
}

/** Artifact path -> load -> materialize -> PlannedEngine -> results of
 *  the probe. On-CPU seconds. */
double
coldStart(Ruleset &rs, Tracer &tr, uint64_t req, Tally &tally)
{
    const uint64_t t0 = threadCpuNs();
    SimResult r;
    {
        Scoped root(tr, "coldstart", -1, req);
        std::optional<artifact::LoadedArtifact> art;
        {
            Scoped sp(tr, "artifact.load", root.id(), req);
            Expected<artifact::LoadedArtifact> la =
                artifact::loadArtifact(rs.path);
            if (la.ok())
                art.emplace(std::move(*la));
        }
        if (!art) {
            tally.note(false, "coldstart load " + rs.path);
            return 0;
        }
        std::optional<Automaton> a;
        {
            Scoped sp(tr, "artifact.materialize", root.id(), req);
            Expected<Automaton> m = art->materialize();
            if (m.ok())
                a.emplace(std::move(*m));
        }
        if (!a) {
            tally.note(false, "coldstart materialize " + rs.path);
            return 0;
        }
        std::optional<PlannedEngine> eng;
        {
            Scoped sp(tr, "planner.build", root.id(), req);
            eng.emplace(*a, art->componentProfiles());
        }
        Scoped sp(tr, "engine.simulate", root.id(), req);
        r = eng->simulate(rs.probe);
    }
    const double sec = static_cast<double>(threadCpuNs() - t0) / 1e9;
    tally.note(matches(r, rs.probeRef, rs.probe.size()),
               std::string("coldstart ") + rs.spec.slug);
    return sec;
}

/** Rounds of block + stream scans over every input (and, traced, the
 *  serial reference run), with one cold start per ruleset per round,
 *  until @p seconds have passed (at least one round). Every sample is
 *  the scanning thread's on-CPU time: the engines scan on the calling
 *  thread, and on a shared host the wall clock also counts the time
 *  other tenants hold the vCPU. */
void
scanFor(Pass &p, std::vector<Ruleset> &rulesets,
        const std::vector<Input> &inputs, double seconds, Tally &tally,
        uint64_t &req)
{
    Tracer &tr = p.scanTracer;
    const uint64_t stopAt = nowNs() + static_cast<uint64_t>(seconds * 1e9);
    EngineScratch scratch;
    do {
        for (size_t i = 0; i < inputs.size(); ++i) {
            const Input &in = inputs[i];
            Ruleset &rs = *in.rs;
            const size_t len = in.bytes.size();
            SimResult r;
            uint64_t t0 = threadCpuNs();
            {
                const uint64_t id = req++;
                Scoped root(tr, "block", -1, id);
                Scoped sp(tr, "engine.simulate", root.id(), id);
                r = rs.engine->simulate(in.bytes);
            }
            p.blockSec[i].push_back(
                static_cast<double>(threadCpuNs() - t0) / 1e9);
            tally.note(matches(r, in.ref, len), "block " + in.slug);

            rs.session->reset();
            t0 = threadCpuNs();
            {
                const uint64_t id = req++;
                Scoped root(tr, "stream", -1, id);
                for (size_t pos = 0; pos < len; pos += kChunk) {
                    Scoped sp(tr, "stream.feed", root.id(), id);
                    rs.session->feed(in.bytes.data() + pos,
                                     std::min(kChunk, len - pos));
                }
                Scoped sp(tr, "stream.results", root.id(), id);
                r = rs.session->results();
            }
            p.streamSec[i].push_back(
                static_cast<double>(threadCpuNs() - t0) / 1e9);
            tally.note(matches(r, in.ref, len), "stream " + in.slug);

            if (p.trace) {
                t0 = threadCpuNs();
                {
                    const uint64_t id = req++;
                    Scoped root(tr, "nfa_ref", -1, id);
                    Scoped sp(tr, "nfa.simulate", root.id(), id);
                    r = rs.reference->simulate(in.bytes.data(), len,
                                               scratch);
                }
                p.nfaSec[i].push_back(
                    static_cast<double>(threadCpuNs() - t0) / 1e9);
                canonicalizeReports(r);
                tally.note(matches(r, in.ref, len), "nfa " + in.slug);
            }
        }
        for (size_t k = 0; k < rulesets.size(); ++k) {
            const double s = coldStart(rulesets[k], tr, req++, tally);
            if (s > 0)
                p.coldSec[k].push_back(s);
        }
        ++p.scanRounds;
    } while (nowNs() < stopAt);
}

/**
 * Pins the calling thread to the @p k-th CPU it may run on (round
 * robin) and restores its mask at scope end. Each scan segment runs on
 * another CPU, so a run samples every CPU's share of the host instead
 * of whichever one the scheduler kept it on.
 */
class CpuPin
{
  public:
    explicit CpuPin(size_t k)
    {
        CPU_ZERO(&orig_);
        if (sched_getaffinity(0, sizeof orig_, &orig_) != 0)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &orig_))
                cpus.push_back(c);
        if (cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[k % cpus.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;
    ~CpuPin()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof orig_, &orig_);
    }

  private:
    cpu_set_t orig_;
    bool pinned_ = false;
};

double
mbps(size_t bytes, double sec)
{
    return sec > 0 ? static_cast<double>(bytes) / sec / 1e6 : 0;
}

/** Co-tenants on a shared host slow whole stretches of rounds by up
 *  to 40% (bimodal, ~100 ms periods), which moves a median from run to
 *  run; the fastest decile of rounds measures the code instead. */
constexpr double kFastQuantile = 0.10;

double
fastMbps(const Input &in, const std::vector<double> &secs)
{
    return mbps(in.bytes.size(), quantile(secs, kFastQuantile));
}

/** Per-round geomean over the inputs of the throughput behind
 *  @p secs, for the min / median / max columns. */
std::vector<double>
roundGeomeans(const std::vector<Input> &inputs,
              const std::vector<std::vector<double>> &secs)
{
    std::vector<double> out;
    const size_t rounds = secs.empty() ? 0 : secs[0].size();
    for (size_t r = 0; r < rounds; ++r) {
        std::vector<double> v;
        for (size_t i = 0; i < inputs.size(); ++i)
            v.push_back(mbps(inputs[i].bytes.size(), secs[i][r]));
        out.push_back(geomean(v));
    }
    return out;
}

// ---- environment ----------------------------------------------------

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

std::vector<std::pair<std::string, std::string>>
environment(const Args &a)
{
    return {
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"flags", PERFBENCH_FLAGS},
        {"cpu", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"commit", a.commit},
        {"workload", a.workload},
        {"seed", std::to_string(a.seed)},
        {"seconds", num(a.seconds)},
        {"trace", a.trace ? "1" : "0"},
        {"scale", num(a.scale)},
        {"transport", "tcp-loopback"},
    };
}

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) >= 0x20)
            os << c;
    }
    os << '"';
}

/** Human-readable table plus a JSON record (environment, each metric's
 *  value and min / median / max over its repetitions) in the work
 *  directory. */
void
report(const Args &a, const std::vector<Metric> &ms, const Tally &tally)
{
    std::cout << "# environment\n";
    for (const auto &[k, v] : environment(a))
        std::cout << "#   " << k << ": " << v << "\n";
    std::cout << "# " << (a.trace ? "per-layer" : "end-to-end")
              << " metrics (value; min / median / max over repetitions)\n";
    for (const Metric &m : ms) {
        std::cout << "  " << std::left << std::setw(40) << m.name
                  << std::right << std::setw(14) << num(m.value).substr(0, 12)
                  << " " << std::left << std::setw(6) << m.unit;
        if (!m.samples.empty()) {
            const auto [lo, hi] =
                std::minmax_element(m.samples.begin(), m.samples.end());
            std::cout << "  [" << *lo << " / " << median(m.samples)
                      << " / " << *hi << ", n=" << m.samples.size() << "]";
        }
        std::cout << std::right << "\n";
    }
    const uint64_t att = tally.attempted, fail = tally.failed;
    std::cout << "  error_rate " << (att ? double(fail) / att : 0.0)
              << " ratio (" << fail << " failed of " << att
              << " attempted)\n";

    std::ofstream f(a.workdir + "/result-" + a.workload + "-seed" +
                    std::to_string(a.seed) + "-trace" +
                    (a.trace ? "1" : "0") + ".json");
    f << "{\"environment\": {";
    bool first = true;
    for (const auto &[k, v] : environment(a)) {
        f << (first ? "" : ", ");
        jsonString(f, k);
        f << ": ";
        jsonString(f, v);
        first = false;
    }
    f << "}, \"attempted\": " << att << ", \"failed\": " << fail
      << ", \"metrics\": {";
    first = true;
    for (const Metric &m : ms) {
        f << (first ? "" : ", ");
        jsonString(f, m.name);
        f << ": {\"value\": " << num(m.value) << ", \"unit\": ";
        jsonString(f, m.unit);
        if (!m.samples.empty()) {
            const auto [lo, hi] =
                std::minmax_element(m.samples.begin(), m.samples.end());
            f << ", \"min\": " << num(*lo) << ", \"median\": "
              << num(median(m.samples)) << ", \"max\": " << num(*hi)
              << ", \"n\": " << m.samples.size();
        }
        f << "}";
        first = false;
    }
    f << "}}\n";
}

/** Write every span as a TSV row: request, span, parent, name, start,
 *  end (ns). */
void
writeSpans(const std::string &path, const std::vector<const Tracer *> &ts)
{
    std::ofstream f(path);
    f << "tracer\trequest\tspan\tparent\tname\tstart_ns\tend_ns\n";
    for (size_t t = 0; t < ts.size(); ++t)
        for (size_t i = 0; i < ts[t]->spans().size(); ++i) {
            const Span &s = ts[t]->spans()[i];
            f << t << "\t" << s.request << "\t" << i << "\t" << s.parent
              << "\t" << s.name << "\t" << s.startNs << "\t" << s.endNs
              << "\n";
        }
}

/** Self times of every span named @p name, in ms. */
std::vector<double>
selfMs(const std::vector<const Tracer *> &ts, const std::string &name)
{
    std::vector<double> out;
    for (const Tracer *t : ts) {
        const std::vector<uint64_t> self = selfTimes(t->spans());
        for (size_t i = 0; i < self.size(); ++i)
            if (t->spans()[i].name == name)
                out.push_back(msOf(self[i]));
    }
    return out;
}

/** Per request, the summed self time of its spans named @p name, in
 *  ms. */
std::vector<double>
perRequestMs(const Tracer &t, const std::string &name)
{
    std::map<uint64_t, uint64_t> sum;
    const std::vector<uint64_t> self = selfTimes(t.spans());
    for (size_t i = 0; i < self.size(); ++i)
        if (t.spans()[i].name == name)
            sum[t.spans()[i].request] += self[i];
    std::vector<double> out;
    for (const auto &[req, ns] : sum)
        out.push_back(msOf(ns));
    return out;
}

uint64_t
counter(const char *name)
{
    return obs::Registry::global().counterValue(name);
}

// ---- one run --------------------------------------------------------

int
run(const Args &a)
{
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloads())
        if (a.workload == w.name)
            spec = &w;
    if (!spec) {
        std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
        return 64;
    }
    Tally tally;

    // Prepare: rulesets compiled to artifacts, seeded inputs, and the
    // serial-NfaEngine reference digest of every input and slice.
    std::vector<Ruleset> rulesets(spec->rulesets.size());
    std::vector<Input> inputs;
    std::vector<Slice> slices;
    for (size_t k = 0; k < rulesets.size(); ++k) {
        Ruleset &rs = rulesets[k];
        rs.spec = spec->rulesets[k];
        zoo::ZooConfig zc;
        zc.seed = kRulesetSeed;
        zc.scale = a.scale;
        zc.inputBytes = kGenBytes;
        zoo::Benchmark b = zoo::makeBenchmark(rs.spec.zooName, zc);
        rs.path = a.workdir + "/" + rs.spec.slug + ".azoox";
        artifact::WriteOptions wo;
        wo.execImage = true;
        wo.componentProfiles = true;
        Expected<artifact::ArtifactInfo> info =
            artifact::saveArtifact(rs.path, b.automaton, wo);
        if (!info.ok())
            throw std::runtime_error(info.status().str());
        rs.automaton = std::make_unique<Automaton>(std::move(b.automaton));
        rs.natural = std::move(b.input);
        rs.reference = std::make_unique<NfaEngine>(*rs.automaton);
    }
    for (size_t k = 0; k < rulesets.size(); ++k) {
        Ruleset &rs = rulesets[k];
        Rng rng(a.seed * 1000003 + k);
        rs.probe = sliceOf(rs.natural, kProbeBytes, rng);
        rs.probeRef = refOf(rs.reference->simulate(rs.probe));
        inputs.push_back(
            {rs.spec.slug, &rs, sliceOf(rs.natural, rs.spec.scanBytes, rng),
             {}});
        std::vector<std::string> lits;
        if (rs.spec.plantedRow || rs.spec.plantSlices) {
            Expected<artifact::LoadedArtifact> la =
                artifact::loadArtifact(rs.path);
            if (!la.ok())
                throw std::runtime_error(la.status().str());
            lits = plantLiterals(*la);
        }
        if (rs.spec.plantedRow)
            inputs.push_back({std::string(rs.spec.slug) + "-planted", &rs,
                              plant(inputs.back().bytes, lits, rng), {}});
        if (k == spec->served)
            for (size_t i = 0; i < kSlices; ++i) {
                Slice s;
                s.bytes = sliceOf(rs.natural, kSessionBytes, rng);
                if (rs.spec.plantSlices)
                    s.bytes = plant(std::move(s.bytes), lits, rng);
                s.ref = refOf(rs.reference->simulate(s.bytes), kReportCap);
                slices.push_back(std::move(s));
            }
    }
    for (Input &in : inputs) {
        in.ref = refOf(in.rs->reference->simulate(in.bytes));
        std::cerr << "perfbench: input " << in.slug << ": "
                  << in.bytes.size() << " bytes, " << in.ref.count
                  << " reference reports\n";
    }
    uint64_t sliceReports = 0;
    for (const Slice &s : slices)
        sliceReports += s.ref.count;
    std::cerr << "perfbench: " << slices.size() << " session slices of "
              << kSessionBytes << " bytes, " << sliceReports
              << " reference reports\n";

    // Set up several times; the last set-up's engines are measured.
    Tracer setupTr(a.trace);
    uint64_t req = 1;
    std::vector<double> scanSetup, serveSetup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const uint64_t t0 = nowNs();
        for (Ruleset &rs : rulesets)
            setUp(rs, setupTr, req++);
        scanSetup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    Ruleset &served = rulesets[spec->served];
    std::unique_ptr<ServerProcess> server;
    std::string addr;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server)
            server->stop();
        const uint64_t t0 = nowNs();
        server = std::make_unique<ServerProcess>(a.serveBin, served.path);
        addr = server->waitReady(60000);
        bool ok = !addr.empty();
        serve::Client c;
        ok = ok && c.connect(addr).ok() && c.open(kPriority).ok() &&
            c.admitted();
        serveSetup.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        if (ok) {
            Expected<serve::Reply> r = c.finish();
            ok = r.ok() && r->status == serve::ReplyStatus::kOk;
        }
        tally.note(ok, "server start");
        if (!ok) {
            std::cerr << "perfbench: azoo_serve did not come up\n";
            return 1;
        }
    }

    // Measure. Traced runs measure twice: untraced first (the
    // baseline the overhead is taken against), then traced.
    const double passSec = a.trace ? a.seconds / 2 : a.seconds;
    auto measure = [&](bool trace) {
        obs::Registry::global().reset();
        Pass p(trace, inputs.size(), rulesets.size(),
               a.seed * 7919 + (trace ? 1u << 20 : 0));
        const double seg = passSec / kSegments;
        for (int k = 0; k < kSegments; ++k) {
            {
                CpuPin pin(static_cast<size_t>(k));
                scanFor(p, rulesets, inputs, seg * spec->scanShare, tally,
                        req);
            }
            serveFor(p, addr, served.path, slices,
                     seg * (1 - spec->scanShare), kReloads / kSegments,
                     tally);
        }
        return p;
    };
    const Pass base = measure(false);
    std::optional<Pass> traced;
    if (a.trace)
        traced.emplace(measure(true));
    const double rssMb = static_cast<double>(server->vmHwmKb()) / 1024;
    tally.note(server->stop(), "server drain");

    auto sessionLatMs = [](const Pass &p) {
        std::vector<double> v;
        for (const SessionRec &r : p.sessions)
            v.push_back(msOf(r.latencyNs));
        return v;
    };
    std::vector<double> blockRows, streamRows, coldMs, coldAll;
    for (size_t i = 0; i < inputs.size(); ++i) {
        blockRows.push_back(fastMbps(inputs[i], base.blockSec[i]));
        streamRows.push_back(fastMbps(inputs[i], base.streamSec[i]));
    }
    for (size_t k = 0; k < base.coldSec.size(); ++k) {
        const std::vector<double> &c = base.coldSec[k];
        coldMs.push_back(quantile(c, kFastQuantile) * 1e3);
        for (double s : c)
            coldAll.push_back(s * 1e3);
        std::cerr << "perfbench: coldstart " << rulesets[k].spec.slug << ": "
                  << coldMs.back() << " ms (fastest decile of " << c.size()
                  << ")\n";
    }
    const std::vector<double> lat = sessionLatMs(base);
    const Tail p99 = tail(lat);
    std::vector<double> setupSum;
    for (int i = 0; i < kSetupReps; ++i)
        setupSum.push_back(scanSetup[static_cast<size_t>(i)] +
                           serveSetup[static_cast<size_t>(i)]);
    std::cerr << "perfbench: " << a.workload << " seed " << a.seed << ": "
              << base.scanRounds << " scan rounds, " << lat.size()
              << " sessions (p99 is the " << p99.q * 100
              << "th percentile), " << base.reloadMs.size() << " reloads\n";

    std::vector<Metric> ms;
    if (!a.trace) {
        ms.push_back({"block_mb_per_s", "MB/s", geomean(blockRows),
                      roundGeomeans(inputs, base.blockSec)});
        ms.push_back({"stream_mb_per_s", "MB/s", geomean(streamRows),
                      roundGeomeans(inputs, base.streamSec)});
        ms.push_back({"coldstart_ms", "ms", geomean(coldMs), coldAll});
        ms.push_back({"setup_s", "s",
                      median(scanSetup) + median(serveSetup), setupSum});
        ms.push_back({"session_p50_ms", "ms", median(lat), {}});
        ms.push_back({"session_p99_ms", "ms", p99.value, {}});
        ms.push_back({"sessions_per_s", "1/s",
                      static_cast<double>(lat.size()) / base.serveWallSec,
                      {}});
        ms.push_back({"reload_ms", "ms",
                      quantile(base.reloadMs, kFastQuantile),
                      base.reloadMs});
        ms.push_back({"server_rss_mb", "MB", rssMb, {}});
        std::cout << "# sessions: " << lat.size() << " (session_p99_ms is "
                  << "the " << p99.q * 100 << "th percentile)\n";
    } else {
        const Pass &tp = *traced;
        std::vector<const Tracer *> clients;
        for (const Tracer &t : tp.clientTracers)
            clients.push_back(&t);
        std::vector<const Tracer *> all = clients;
        all.insert(all.end(),
                   {&setupTr, &tp.scanTracer, &tp.reloadTracer});
        auto med = [&](const char *n) { return median(selfMs(all, n)); };
        ms.push_back({"artifact.load_ms", "ms", med("artifact.load"), {}});
        ms.push_back({"artifact.materialize_ms", "ms",
                      med("artifact.materialize"), {}});
        ms.push_back({"planner.build_ms", "ms", med("planner.build"), {}});
        ms.push_back({"planner.session_open_ms", "ms",
                      med("planner.session_open"), {}});
        std::array<uint64_t, kPlanBackends> comps{};
        for (const Ruleset &rs : rulesets)
            for (size_t b = 0; b < kPlanBackends; ++b)
                comps[b] += rs.engine->plan().backendCount[b];
        for (size_t b = 0; b < kPlanBackends; ++b)
            ms.push_back({std::string("planner.components.") +
                              planBackendName(static_cast<PlanBackend>(b)),
                          "count", static_cast<double>(comps[b]), {}});
        // Rows of inputs another workload scans read 0.
        for (const std::string &slug : allSlugs()) {
            double row[3] = {0, 0, 0};
            for (size_t i = 0; i < inputs.size(); ++i)
                if (inputs[i].slug == slug) {
                    row[0] = fastMbps(inputs[i], tp.blockSec[i]);
                    row[1] = fastMbps(inputs[i], tp.streamSec[i]);
                    row[2] = fastMbps(inputs[i], tp.nfaSec[i]);
                }
            const std::string p = "row." + slug + ".";
            ms.push_back({p + "block_mb_per_s", "MB/s", row[0], {}});
            ms.push_back({p + "stream_mb_per_s", "MB/s", row[1], {}});
            ms.push_back({p + "nfa_ref_mb_per_s", "MB/s", row[2], {}});
        }
        // Prefilter effectiveness over one block pass of the inputs.
        PrefilterStats pf;
        uint64_t pfReports = 0;
        for (const Input &in : inputs) {
            const SimResult r = in.rs->engine->simulate(in.bytes);
            const PrefilterStats &s = in.rs->engine->lastPrefilterStats();
            pf.candidates += s.candidates;
            pf.windowBytes += s.windowBytes;
            pf.skippedBytes += s.skippedBytes;
            if (s.candidates)
                pfReports += r.reportCount;
        }
        ms.push_back({"prefilter.candidates", "count",
                      static_cast<double>(pf.candidates), {}});
        ms.push_back({"prefilter.window_bytes", "bytes",
                      static_cast<double>(pf.windowBytes), {}});
        const uint64_t covered = pf.windowBytes + pf.skippedBytes;
        ms.push_back({"prefilter.skip_ratio", "ratio",
                      covered ? double(pf.skippedBytes) / covered : 0, {}});
        ms.push_back({"prefilter.reports_per_candidate", "ratio",
                      pf.candidates ? double(pfReports) / pf.candidates : 0,
                      {}});
        // Lazy-DFA cache, from the obs registry over the traced pass.
        const uint64_t hits = counter("engine.lazy.cache_hits");
        const uint64_t misses = counter("engine.lazy.cache_misses");
        ms.push_back({"lazy.hit_ratio", "ratio",
                      hits + misses ? double(hits) / (hits + misses) : 0,
                      {}});
        ms.push_back({"lazy.flushes", "count",
                      static_cast<double>(counter("engine.lazy.cache_flushes")),
                      {}});
        ms.push_back({"stream.feed_ms", "ms",
                      median(perRequestMs(tp.scanTracer, "stream.feed")),
                      {}});
        ms.push_back({"stream.results_ms", "ms",
                      median(selfMs({&tp.scanTracer}, "stream.results")),
                      {}});
        for (const char *n : {"connect", "open", "send", "finish"}) {
            const std::vector<double> v =
                selfMs(clients, std::string("client.") + n);
            ms.push_back({std::string("client.") + n + "_ms.p50", "ms",
                          median(v), {}});
            ms.push_back({std::string("client.") + n + "_ms.p99", "ms",
                          tail(v).value, {}});
        }
        std::vector<double> replyBytes, reports;
        std::array<uint64_t, 5> outcomes{};
        for (const SessionRec &r : tp.sessions) {
            replyBytes.push_back(static_cast<double>(r.replyBytes));
            reports.push_back(static_cast<double>(r.reports));
            ++outcomes[static_cast<size_t>(r.outcome)];
        }
        ms.push_back({"serve.reply_bytes", "bytes", median(replyBytes), {}});
        ms.push_back({"serve.reports_per_session", "count", median(reports),
                      {}});
        const char *outcomeNames[] = {"ok", "truncated", "rejected", "shed",
                                      "failed"};
        for (size_t o = 0; o < 5; ++o)
            ms.push_back({std::string("serve.outcomes.") + outcomeNames[o],
                          "count", static_cast<double>(outcomes[o]), {}});
        // Per stream, cold start and session: single-call roots (block,
        // reference run) cover themselves by construction.
        std::vector<double> ratios;
        for (const Tracer *t : all)
            for (const char *root : {"stream", "session", "coldstart"}) {
                const std::vector<double> r =
                    layerSumRatios(t->spans(), root);
                ratios.insert(ratios.end(), r.begin(), r.end());
            }
        ms.push_back({"layer_sum_ratio", "ratio", median(ratios), {}});
        // Tracing overhead: traced vs untraced pass of the same run.
        std::vector<double> tStream;
        for (size_t i = 0; i < inputs.size(); ++i)
            tStream.push_back(fastMbps(inputs[i], tp.streamSec[i]));
        const double uS = geomean(streamRows), tS = geomean(tStream);
        ms.push_back({"trace.scan_overhead_pct", "%",
                      tS > 0 ? 100 * (uS / tS - 1) : 0, {}});
        const double uL = median(lat), tL = median(sessionLatMs(tp));
        ms.push_back({"trace.serve_overhead_pct", "%",
                      uL > 0 ? 100 * (tL / uL - 1) : 0, {}});
        writeSpans(a.workdir + "/spans-" + a.workload + "-seed" +
                       std::to_string(a.seed) + ".tsv",
                   all);
    }

    report(a, ms, tally);
    const uint64_t att = tally.attempted, fail = tally.failed;
    std::cout << "{\"correct\": " << (fail == 0 ? "true" : "false")
              << ", \"attempted\": " << att << ", \"failed\": " << fail
              << ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << ms[i].name
                  << "\": {\"value\": " << num(ms[i].value)
                  << ", \"unit\": \"" << ms[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return fail == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    signal(SIGPIPE, SIG_IGN);
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: azoo_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --serve-bin PATH "
                     "[--workdir DIR] [--scale X] [--commit ID]\n";
        return 64;
    }
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
