#include "engine/planner.hh"

#include <algorithm>
#include <chrono>

#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

const char *
planBackendName(PlanBackend b)
{
    switch (b) {
      case PlanBackend::kPrefilter:
        return "prefilter";
      case PlanBackend::kAnchoredPrefix:
        return "anchored-prefix";
      case PlanBackend::kLazyDfa:
        return "lazy-dfa";
      case PlanBackend::kInterpreter:
        return "interpreter";
      case PlanBackend::kSkip:
        return "skip";
    }
    return "?";
}

char
planBackendCode(PlanBackend b)
{
    switch (b) {
      case PlanBackend::kPrefilter:
        return 'P';
      case PlanBackend::kAnchoredPrefix:
        return 'A';
      case PlanBackend::kLazyDfa:
        return 'D';
      case PlanBackend::kInterpreter:
        return 'I';
      case PlanBackend::kSkip:
        return 'S';
    }
    return '?';
}

const char *
engineName(EngineKind k)
{
    static const char *const kNames[] = {"nfa", "multidfa", "lazydfa",
                                         "auto"};
    return kNames[static_cast<size_t>(k)];
}

Expected<EngineKind>
parseEngine(const std::string &name,
            std::initializer_list<EngineKind> runs)
{
    std::string names;
    for (EngineKind k : runs) {
        const bool dfa = k == EngineKind::kMultiDfa; // alias "dfa"
        if (name == engineName(k) || (dfa && name == "dfa"))
            return k;
        names += cat(names.empty() ? "" : "|", engineName(k),
                     dfa ? "|dfa" : "");
    }
    return Status(ErrorCode::kInvalidArgument,
                  cat("engine '", name, "' is not one of ", names));
}

std::string
EnginePlan::census() const
{
    std::string out;
    for (size_t b = 0; b < kPlanBackends; ++b) {
        if (backendCount[b] == 0)
            continue;
        if (!out.empty())
            out += '/';
        out += planBackendCode(static_cast<PlanBackend>(b));
        out += std::to_string(backendCount[b]);
    }
    return out.empty() ? "-" : out;
}

namespace {

/** Per-component "has a start-of-data member" bits; the prefilter
 *  window replay is only exact for pure all-input-start components
 *  (an SoD start matches at offset 0 only, which a window opened
 *  mid-stream cannot represent). */
std::vector<uint8_t>
sodComponents(const Automaton &a)
{
    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);
    std::vector<uint8_t> hasSod(count, 0);
    for (ElementId i = 0; i < a.size(); ++i) {
        if (a.element(i).start == StartType::kStartOfData)
            hasSod[comp[i]] = 1;
    }
    return hasSod;
}

/** Shortest mandatory literal worth scanning for. */
constexpr uint32_t kMinScanLiteral = 4;
/** Scan-literal length cap: longer factors are truncated, and the
 *  verify step inside the window restores exactness. */
constexpr uint32_t kMaxScanLiteral = 8;

PlanBackend
decide(const analysis::ComponentProfile &p, bool hasSod,
       const PlanOptions &opts)
{
    using analysis::ComponentClass;
    if (p.reportCount == 0)
        return PlanBackend::kSkip;
    if (p.cls == ComponentClass::kCounterCoupled)
        return PlanBackend::kInterpreter;
    if (p.cls == ComponentClass::kCyclicUnbounded) {
        // Cycles on accepting paths (dot-star gaps) are absorbing:
        // once active they stay active, so the lazy DFA's state-sets
        // converge to a small hot set regardless of the static blowup
        // estimate.
        return PlanBackend::kLazyDfa;
    }
    // Acyclic, counter-free from here on.
    if (opts.enablePrefilter &&
        p.cls == ComponentClass::kLiteralChain &&
        p.mandatoryLiteral.size() >= kMinScanLiteral &&
        p.maxMatchLen != analysis::kUnboundedLen && !hasSod) {
        return PlanBackend::kPrefilter;
    }
    // Unanchored acyclic components restart at every input offset, so
    // a lazy-DFA state-set encodes the phase of every live run and
    // rarely repeats — the transition cache churns instead of
    // converging (mesh kernels are the worst case). The enabled-set
    // interpreter pays per active state but never constructs
    // state-sets. Anchored bounded components land here too: once
    // quiesced they cost the interpreter nothing per symbol.
    return PlanBackend::kInterpreter;
}

/** Components of @p plan routed to @p backend. */
std::vector<uint8_t>
routedTo(const EnginePlan &plan, PlanBackend backend)
{
    std::vector<uint8_t> wanted(plan.decisions.size(), 0);
    for (const ComponentDecision &d : plan.decisions)
        wanted[d.componentId] = d.backend == backend ? 1 : 0;
    return wanted;
}

/** The scan literal and window of one prefilter-routed component. */
PrefilterPattern
prefilterPattern(const analysis::ComponentProfile &p)
{
    PrefilterPattern pat;
    pat.literal = p.mandatoryLiteral.substr(0, kMaxScanLiteral);
    // +2 slop over the exact reach so off-by-one drift in the length
    // facts can never clip a match.
    pat.radius = p.maxMatchLen + 2;
    return pat;
}

/** The prefilter group of @p plan: one PrefilteredNfa over its
 *  components' members, one scan literal + window per component;
 *  null when no component was routed there. */
std::unique_ptr<PrefilteredNfa>
buildPrefilterGroup(const Automaton &a, const std::vector<uint32_t> &comp,
                    const EnginePlan &plan,
                    const std::vector<analysis::ComponentProfile>
                        &profiles)
{
    const std::vector<uint8_t> wanted =
        routedTo(plan, PlanBackend::kPrefilter);
    std::vector<ElementId> members;
    for (ElementId i = 0; i < a.size(); ++i) {
        if (wanted[comp[i]])
            members.push_back(i);
    }
    if (members.empty())
        return nullptr;
    std::vector<PrefilterPattern> pats;
    for (const analysis::ComponentProfile &p : profiles) {
        if (wanted[p.componentId])
            pats.push_back(prefilterPattern(p));
    }
    return std::make_unique<PrefilteredNfa>(a, std::move(members),
                                            std::move(pats));
}

void
notePlan(const EnginePlan &plan)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    for (size_t b = 0; b < kPlanBackends; ++b) {
        if (plan.backendCount[b] == 0)
            continue;
        reg.counter(cat("planner.assignments.",
                        planBackendName(static_cast<PlanBackend>(b))))
            .add(plan.backendCount[b]);
    }
}

/**
 * Per-backend wall time of one session feed, recorded once into
 * engine.planned.<backend>.ns by record(), never per symbol. The
 * clock is read only where the charged backend changes, so a guarded
 * feed's slices cost one read per backend switch, and none between
 * slices of a plan with one running backend. Time between switches
 * (guard polls included) goes to the backend that ran last. A clock
 * made off reads nothing and records nothing. Compiles to nothing
 * under AZOO_OBS=OFF.
 */
class BackendClock
{
  public:
    explicit BackendClock(bool on) : on_(on) {}

    /** Charge the time from here on to @p b. */
    void
    charge(PlanBackend b)
    {
        if constexpr (obs::kEnabled) {
            if (!on_)
                return;
            const auto i = static_cast<size_t>(b);
            if (i == current_)
                return;
            lap();
            current_ = i;
            ran_[i] = true;
        }
    }

    /** Stop the clock; one sample per backend that ran. */
    void
    record()
    {
        if constexpr (obs::kEnabled) {
            if (!on_)
                return;
            lap();
            // Only the three timed backends have a histogram.
            static obs::Histogram *const h[kPlanBackends] = {
                histogram(PlanBackend::kPrefilter), nullptr,
                histogram(PlanBackend::kLazyDfa),
                histogram(PlanBackend::kInterpreter), nullptr};
            for (size_t i = 0; i < kPlanBackends; ++i) {
                if (ran_[i])
                    h[i]->record(ns_[i]);
            }
        }
    }

  private:
    static obs::Histogram *
    histogram(PlanBackend b)
    {
        return &obs::Registry::global().histogram(
            cat("engine.planned.", planBackendName(b), ".ns"));
    }

    /** Close the current backend's interval. */
    void
    lap()
    {
        const auto now = std::chrono::steady_clock::now();
        if (current_ < kPlanBackends) {
            ns_[current_] += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - since_)
                    .count());
        }
        since_ = now;
    }

    bool on_;
    size_t current_ = kPlanBackends; ///< none yet
    std::chrono::steady_clock::time_point since_;
    std::array<uint64_t, kPlanBackends> ns_{};
    std::array<bool, kPlanBackends> ran_{};
};

/** Report records a session's buffers keep between feeds whatever
 *  its options record. */
constexpr uint64_t kKeptReports = 256;

/** Shortest feed that BackendClock times. Two clock reads and a
 *  histogram sample cost as much as interpreting a few bytes, so
 *  timing every feed made byte-at-a-time streams several times
 *  slower; from here on they are a small share of the feed. */
constexpr size_t kTimedFeedBytes = 256;

/** engine.lazy.handoffs: sessions whose lazy group left the DFA for
 *  the interpreter. */
void
noteHandoff()
{
    if (!obs::kEnabled)
        return;
    static obs::Counter &handoffs =
        obs::Registry::global().counter("engine.lazy.handoffs");
    handoffs.inc();
}

} // namespace

EnginePlan
planComponents(const Automaton &a,
               const std::vector<analysis::ComponentProfile> &profiles,
               const PlanOptions &opts)
{
    const std::vector<uint8_t> hasSod = sodComponents(a);
    if (hasSod.size() != profiles.size())
        panic("planComponents: profiles do not match the automaton");
    EnginePlan plan;
    plan.decisions.reserve(profiles.size());
    for (const analysis::ComponentProfile &p : profiles)
        plan.add(p.componentId, decide(p, hasSod[p.componentId] != 0, opts));
    return plan;
}

EnginePlan
fixedPlan(EngineKind kind, const Automaton &a)
{
    if (kind != EngineKind::kNfa && kind != EngineKind::kLazyDfa)
        panic(cat("fixedPlan: ", engineName(kind), " has no fixed plan"));
    // Components over activation *and* reset edges: a counter stays
    // with everything that counts or resets it.
    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);
    std::vector<uint8_t> interpret(count, kind == EngineKind::kNfa);
    for (ElementId i = 0; i < a.size(); ++i) {
        if (a.element(i).kind == ElementKind::kCounter)
            interpret[comp[i]] = 1;
    }
    EnginePlan plan;
    plan.decisions.reserve(count);
    for (uint32_t c = 0; c < count; ++c) {
        plan.add(c, interpret[c] ? PlanBackend::kInterpreter
                                 : PlanBackend::kLazyDfa);
    }
    return plan;
}

std::shared_ptr<const PlannedProgram>
compileProgram(EngineKind kind, const Automaton &a, const PlanOptions &opts,
               const std::vector<analysis::ComponentProfile> &profiles)
{
    if (kind != EngineKind::kAuto) {
        return std::make_shared<const PlannedProgram>(
            a, fixedPlan(kind, a), opts);
    }
    if (!profiles.empty())
        return std::make_shared<const PlannedProgram>(a, profiles, opts);
    return std::make_shared<const PlannedProgram>(
        a, analysis::inferProfiles(a, opts.infer), opts);
}

// ---------------------------------------------------------------------
// PlannedProgram

PlannedProgram::PlannedProgram(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : PlannedProgram(a, planComponents(a, profiles, opts), opts, profiles)
{
    notePlan(plan_);
}

PlannedProgram::PlannedProgram(
    const Automaton &a, EnginePlan plan, const PlanOptions &opts,
    const std::vector<analysis::ComponentProfile> &profiles)
    : plan_(std::move(plan))
    , lazyCacheBytes_(opts.lazyCacheBytes)
{
    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);
    if (plan_.decisions.size() != count)
        panic("PlannedProgram: the plan does not match the automaton");
    if (plan_.backendCount[static_cast<size_t>(PlanBackend::kPrefilter)] &&
        profiles.size() != count)
        panic("PlannedProgram: prefilter components need profiles");
    prefilter_ = buildPrefilterGroup(a, comp, plan_, profiles);
    const std::vector<uint8_t> lazy = routedTo(plan_, PlanBackend::kLazyDfa);
    const std::vector<uint8_t> interpreted =
        routedTo(plan_, PlanBackend::kInterpreter);
    std::vector<ElementId> interp;
    for (ElementId i = 0; i < a.size(); ++i) {
        if (lazy[comp[i]])
            restToGlobal_.push_back(i);
        else if (interpreted[comp[i]])
            interp.push_back(i);
    }
    lazyCount_ = restToGlobal_.size();
    restToGlobal_.insert(restToGlobal_.end(), interp.begin(),
                         interp.end());
    if (restToGlobal_.empty())
        return;
    rest_ = std::make_unique<const NfaEngine>(a, restToGlobal_);
    const NfaExecImage &img = rest_->image();
    if (lazyCount_ == 0 ||
        (!img.counters.empty() && img.counters.front() < lazyCount_))
        return;
    lazyDfa_ = std::make_unique<const LazyDfaProgram>(img, lazyCount_);
    if (!interp.empty()) {
        interpView_ = std::make_unique<const NfaEngine>(
            *rest_, static_cast<ElementId>(lazyCount_));
    }
}

size_t
PlannedProgram::footprintBytes() const
{
    size_t n = sizeof(*this) + restToGlobal_.capacity() * sizeof(ElementId);
    if (prefilter_)
        n += prefilter_->footprintBytes();
    for (const NfaEngine *e : {rest_.get(), interpView_.get()}) {
        if (e)
            n += sizeof(NfaEngine) + e->footprintBytes();
    }
    if (lazyDfa_)
        n += sizeof(LazyDfaProgram) + lazyDfa_->symbolClasses();
    return n;
}

// ---------------------------------------------------------------------
// PlannedSession

PlannedSession::PlannedSession(const Automaton &a,
                               const PlanOptions &opts)
    : PlannedSession(a, analysis::inferProfiles(a, opts.infer), opts)
{
}

PlannedSession::PlannedSession(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : PlannedSession(
          std::make_shared<const PlannedProgram>(a, profiles, opts))
{
}

PlannedSession::PlannedSession(std::shared_ptr<const PlannedProgram> program)
    : PlannedSession(program,
                     EngineScratch::elementBytes(program->lazyCount_))
{
}

PlannedSession::PlannedSession(std::shared_ptr<const PlannedProgram> program,
                               size_t cacheBytes)
    : program_(std::move(program))
    , lazyCache_(cacheBytes)
    , onDfa_(program_->lazyDfa_ != nullptr)
{
    // Every cursor keeps default options — record every report, no
    // guard: results() applies the caller's options after the merge,
    // and feed() owns the poll clock.
    if (program_->prefilter_) {
        prefilterSession_ = std::make_unique<PrefilteredNfa::Session>(
            *program_->prefilter_);
    }
    restart();
}

void
PlannedSession::restart()
{
    const PlannedProgram &p = *program_;
    restResult_ = SimResult();
    if (onDfa_)
        p.lazyDfa_->begin(lazyCache_, lazyCursor_); // the cache stays warm
    if (const NfaEngine *e = onDfa_ ? p.interpView_.get() : p.rest_.get()) {
        e->end(restScratch_);
        e->begin(restScratch_);
    }
}

void
PlannedSession::handOff()
{
    const PlannedProgram &p = *program_;
    // An interpreter group's cursor already stands at the position.
    if (!p.interpView_)
        p.rest_->resume(restScratch_, lazyCursor_.pos);
    for (uint32_t id : lazyCache_.members(lazyCursor_.state))
        restScratch_.enable(id);
    lazyCache_.release();
    settled_.lazyStates = restResult_.lazyStates = 0; // none resident
    lazyCursor_ = LazyDfaCursor();
    onDfa_ = false;
    noteHandoff();
}

size_t
PlannedSession::feed(const uint8_t *data, size_t len)
{
    if (!guardStatus_.ok())
        return 0;
    const PlannedProgram &p = *program_;
    SimOptions inner;
    inner.computeActiveSet = options.computeActiveSet;
    // A DFA that is the plan's only backend reports alone and in
    // canonical order, so it counts and records straight into the
    // settled state under the caller's options (the guard aside).
    const bool dfaAlone = !p.interpView_ && !prefilterSession_;
    SimOptions alone = options;
    alone.guard = nullptr;
    SimResult &dfaOut = dfaAlone ? settled_ : restResult_;
    BackendClock clock(len >= kTimedFeedBytes);
    size_t done = 0, settledAt = 0;
    bool settled = false; // some settle this feed had reports
    while (done < len) {
        // The session owns the poll clock: under a guard, every
        // cursor is fed in slices that never cross a
        // kGuardCheckIntervalSymbols boundary of *stream* position, so
        // truncation lands on the same poll points as the monolithic
        // engines regardless of how callers chunk their feeds.
        size_t step = std::min(len - done, settledAt + kSettleBytes - done);
        if (options.guard) {
            if (t_ % kGuardCheckIntervalSymbols == 0) {
                Status st = options.guard->check(t_);
                if (!st.ok()) {
                    obs::noteGuardStop("engine.planned", st.code());
                    guardStatus_ = std::move(st);
                    break;
                }
            }
            step = static_cast<size_t>(std::min<uint64_t>(
                step, kGuardCheckIntervalSymbols -
                    t_ % kGuardCheckIntervalSymbols));
        }
        const uint8_t *chunk = data + done;
        size_t dfaBytes = 0; // bytes the DFA took
        if (onDfa_) {
            clock.charge(PlanBackend::kLazyDfa);
            const size_t recorded = dfaOut.reports.size();
            dfaBytes = p.lazyDfa_->feed(lazyCache_, lazyCursor_, chunk,
                                        step, dfaAlone ? alone : inner,
                                        dfaOut);
            if (dfaAlone) {
                for (size_t k = recorded; k < dfaOut.reports.size(); ++k)
                    dfaOut.reports[k].element =
                        p.restToGlobal_[dfaOut.reports[k].element];
            }
            if (p.interpView_) {
                clock.charge(PlanBackend::kInterpreter);
                p.interpView_->feed(restScratch_, chunk, dfaBytes, inner,
                                    restResult_);
            }
            // inner carries no guard: a short feed is a full cache.
            if (dfaBytes < step)
                handOff();
        }
        if (!onDfa_ && p.rest_ && dfaBytes < step) {
            clock.charge(PlanBackend::kInterpreter);
            p.rest_->feed(restScratch_, chunk + dfaBytes, step - dfaBytes,
                          inner, restResult_);
        }
        if (prefilterSession_) {
            clock.charge(PlanBackend::kPrefilter);
            prefilterSession_->feed(chunk, step);
        }
        done += step;
        t_ += step;
        if (done - settledAt == kSettleBytes) {
            settled |= settle();
            settledAt = done;
        }
    }
    if (settledAt != done)
        settled |= settle();
    // Between feeds the buffers hold at most the unsettled tail; one
    // that grew past what the caller records is given back. Only a
    // feed whose backends reported can have grown one.
    if (settled) {
        const uint64_t keep = std::max<uint64_t>(
            kKeptReports,
            options.recordReports ? options.reportRecordLimit : 0);
        for (std::vector<Report> *v : {&restResult_.reports, &settling_}) {
            if (v->capacity() > keep)
                std::vector<Report>(v->begin(), v->end()).swap(*v);
        }
    }
    if (prefilterSession_)
        prefilterSession_->noteStats();
    clock.record();
    return done;
}

bool
PlannedSession::settle()
{
    std::vector<Report> &rest = restResult_.reports;
    if (rest.empty() &&
        (!prefilterSession_ || prefilterSession_->reports().empty()))
        return false;
    const std::vector<ElementId> &toGlobal = program_->restToGlobal_;
    // Cursor backends report up to t_, the DFA's and the interpreter
    // group's slices one after the other; the prefilter may still
    // report down to its low-water mark.
    const uint64_t below =
        prefilterSession_ ? prefilterSession_->lowWater() : t_;
    auto kept = rest.begin();
    for (const Report &r : rest) {
        if (r.offset < below)
            settling_.push_back({r.offset, toGlobal[r.element], r.code});
        else
            *kept++ = r;
    }
    rest.erase(kept, rest.end());
    if (prefilterSession_)
        prefilterSession_->takeReports(below, settling_);
    if (!std::is_sorted(settling_.begin(), settling_.end()))
        std::sort(settling_.begin(), settling_.end());
    tallyReports(settling_, options, settled_, settledOffset_);
    settling_.clear();
    return true;
}

SimResult
PlannedSession::collect(SimResult out) const
{
    const std::vector<ElementId> &toGlobal = program_->restToGlobal_;
    std::vector<Report> tail;
    for (const Report &r : restResult_.reports)
        tail.push_back({r.offset, toGlobal[r.element], r.code});
    out.totalEnabled += restResult_.totalEnabled;
    if (prefilterSession_) {
        tail.insert(tail.end(), prefilterSession_->reports().begin(),
                    prefilterSession_->reports().end());
        out.totalEnabled += prefilterSession_->totalEnabled();
    }
    std::sort(tail.begin(), tail.end());
    uint64_t lastOffset = settledOffset_;
    tallyReports(tail, options, out, lastOffset);
    out.symbols = t_;
    out.guardStatus = guardStatus_;
    out.lazyStates += restResult_.lazyStates;
    return out;
}

SimResult
PlannedSession::results() const
{
    return collect(settled_);
}

void
PlannedSession::reset()
{
    if (prefilterSession_)
        prefilterSession_->reset();
    restart();
    settled_ = SimResult();
    settledOffset_ = ~uint64_t(0);
    t_ = 0;
    guardStatus_ = Status();
}

size_t
PlannedSession::footprintBytes() const
{
    size_t n = sizeof(*this) + lazyCache_.footprintBytes() +
        restScratch_.footprintBytes() +
        (restResult_.reports.capacity() + settled_.reports.capacity() +
         settling_.capacity()) * sizeof(Report);
    if (prefilterSession_)
        n += prefilterSession_->footprintBytes();
    return n;
}

size_t
PlannedSession::cursorBytes(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts, size_t maxReportRecords)
{
    // The scratch and its worklists span at most every element; on
    // the DFA the lazy group's cache, budgeted at its share of them,
    // sits beside. Between feeds the unsettled and settling buffers
    // keep at most max(maxReportRecords, kKeptReports) records each.
    // The window keeps at most the widest reach of any component the
    // planner could route to the prefilter (decide() without the
    // start-of-data veto, which only ever removes components), so
    // this needs no plan and no program.
    size_t lazyElements = 0;
    bool prefilter = false;
    uint64_t radius = 0, literal = 0;
    for (const analysis::ComponentProfile &p : profiles) {
        const PlanBackend b = decide(p, false, opts);
        if (b == PlanBackend::kLazyDfa)
            lazyElements += p.steCount + p.counterCount;
        if (b != PlanBackend::kPrefilter)
            continue;
        prefilter = true;
        const PrefilterPattern pat = prefilterPattern(p);
        radius = std::max<uint64_t>(radius, pat.radius);
        literal = std::max<uint64_t>(literal, pat.literal.size());
    }
    const size_t cursors = sizeof(PlannedSession) +
        EngineScratch::elementBytes(a.size()) +
        EngineScratch::elementBytes(lazyElements) +
        2 * a.size() * sizeof(ElementId) +
        (maxReportRecords +
         2 * std::max<uint64_t>(maxReportRecords, kKeptReports)) *
        sizeof(Report);
    if (!prefilter)
        return cursors;
    return cursors + sizeof(PrefilteredNfa::Session) +
        PrefilteredNfa::Session::bufferBound(radius + literal);
}

// ---------------------------------------------------------------------
// PlannedEngine

PlannedEngine::PlannedEngine(const Automaton &a, const PlanOptions &opts)
    : PlannedEngine(a, analysis::inferProfiles(a, opts.infer), opts)
{
}

PlannedEngine::PlannedEngine(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : PlannedEngine(
          std::make_shared<const PlannedProgram>(a, profiles, opts))
{
}

PlannedEngine::PlannedEngine(std::shared_ptr<const PlannedProgram> program)
    : session_(program, program->lazyCacheBytes_)
{
}

SimResult
PlannedEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &opts)
{
    session_.reset();
    session_.options = opts;
    session_.feed(input, len);
    return session_.collect(std::move(session_.settled_));
}

} // namespace azoo
