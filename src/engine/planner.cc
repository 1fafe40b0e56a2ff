#include "engine/planner.hh"

#include <algorithm>

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

/** Copy the components selected by @p wanted into a fresh
 *  sub-automaton; fills the local-to-global remap (subAutomaton's
 *  member list). Returns nullptr when the group is empty. */
std::unique_ptr<Automaton>
buildGroup(const Automaton &a, const std::vector<uint32_t> &comp,
           const std::vector<uint8_t> &wanted, const char *suffix,
           std::vector<ElementId> &toGlobal)
{
    toGlobal.clear();
    for (ElementId i = 0; i < a.size(); ++i) {
        if (wanted[comp[i]])
            toGlobal.push_back(i);
    }
    if (toGlobal.empty())
        return nullptr;
    return std::make_unique<Automaton>(
        subAutomaton(a, toGlobal, a.name() + suffix));
}

/** Components of @p plan whose backend @p want accepts. */
template <typename Pred>
std::vector<uint8_t>
groupOf(const EnginePlan &plan, Pred &&want)
{
    std::vector<uint8_t> wanted(plan.decisions.size(), 0);
    for (const ComponentDecision &d : plan.decisions)
        wanted[d.componentId] = want(d.backend) ? 1 : 0;
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
 *  components, one scan literal + window per component; null when
 *  no component was routed there. */
std::unique_ptr<PrefilteredNfa>
buildPrefilterGroup(const Automaton &a, const std::vector<uint32_t> &comp,
                    const EnginePlan &plan,
                    const std::vector<analysis::ComponentProfile>
                        &profiles)
{
    const std::vector<uint8_t> wanted = groupOf(
        plan, [](PlanBackend b) { return b == PlanBackend::kPrefilter; });
    std::vector<ElementId> toGlobal;
    auto sub = buildGroup(a, comp, wanted, ".prefilter", toGlobal);
    if (!sub)
        return nullptr;
    std::vector<PrefilterPattern> pats;
    for (const analysis::ComponentProfile &p : profiles) {
        if (wanted[p.componentId])
            pats.push_back(prefilterPattern(p));
    }
    return std::make_unique<PrefilteredNfa>(*sub, std::move(toGlobal),
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
    for (const analysis::ComponentProfile &p : profiles) {
        const PlanBackend b =
            decide(p, hasSod[p.componentId] != 0, opts);
        plan.decisions.push_back({p.componentId, b});
        ++plan.backendCount[static_cast<size_t>(b)];
    }
    return plan;
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
{
    build(a, profiles, opts);
}

void
PlannedEngine::build(const Automaton &a,
                     const std::vector<analysis::ComponentProfile>
                         &profiles,
                     const PlanOptions &opts)
{
    plan_ = planComponents(a, profiles, opts);
    notePlan(plan_);

    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);

    auto wantedFor = [&](PlanBackend want) {
        return groupOf(plan_, [want](PlanBackend b) { return b == want; });
    };

    prefilter_ = buildPrefilterGroup(a, comp, plan_, profiles);

    {
        lazySub_ = buildGroup(a, comp,
                              wantedFor(PlanBackend::kLazyDfa), ".lazy",
                              lazyToGlobal_);
        if (lazySub_) {
            LazyDfaOptions lo;
            lo.cacheBytes = opts.lazyCacheBytes;
            lazyEngine_ =
                std::make_unique<LazyDfaEngine>(*lazySub_, lo);
        }
    }

    {
        interpSub_ = buildGroup(a, comp,
                                wantedFor(PlanBackend::kInterpreter),
                                ".interp", interpToGlobal_);
        if (interpSub_)
            interpEngine_ = std::make_unique<NfaEngine>(*interpSub_);
    }
}

SimResult
PlannedEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &uopts)
{
    PartMerger merger(len);

    // Poll sweep over the whole input *before* the backends run: the
    // poll clock must tick even where every backend is absent or
    // skipping (an all-kSkip plan still honours a symbol budget), and
    // running it first means a budget stop truncates at the same poll
    // point the serial engine would, while wall-clock/cancel stops
    // mid-run are caught by the backends' own polls below.
    if (uopts.guard) {
        for (uint64_t t = 0; t < len;
             t += kGuardCheckIntervalSymbols) {
            Status st = uopts.guard->check(t);
            if (!st.ok()) {
                merger.stop(t, st);
                break;
            }
        }
    }

    // Each group is one part over the prefix not yet cut by a stop.
    const SimOptions inner = PartMerger::partOptions(uopts);
    auto live = [&] { return static_cast<size_t>(merger.consumed()); };
    if (interpEngine_ && live() > 0) {
        merger.add(interpEngine_->simulate(input, live(), interpScratch_,
                                           inner),
                   interpToGlobal_);
    }
    if (lazyEngine_ && live() > 0) {
        merger.add(lazyEngine_->simulate(input, live(), inner),
                   lazyToGlobal_);
    }
    lastPrefilterStats_ = PrefilterStats();
    if (prefilter_ && live() > 0) {
        PrefilteredNfa::RunResult rr = prefilter_->run(
            input, live(), uopts.guard, prefilterScratch_);
        lastPrefilterStats_ = rr.stats;
        merger.add(std::move(rr));
    }
    return merger.finish(uopts);
}

// ---------------------------------------------------------------------
// PlannedProgram

PlannedProgram::PlannedProgram(
    const Automaton &a,
    const std::vector<analysis::ComponentProfile> &profiles,
    const PlanOptions &opts)
    : plan_(planComponents(a, profiles, opts))
{
    notePlan(plan_);

    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);
    prefilter_ = buildPrefilterGroup(a, comp, plan_, profiles);
    // The rest group's graph copy lives only as long as its compile.
    const auto rest = buildGroup(
        a, comp, groupOf(plan_, [](PlanBackend b) {
            return b != PlanBackend::kPrefilter && b != PlanBackend::kSkip;
        }),
        ".rest", restToGlobal_);
    if (rest)
        rest_ = std::make_shared<const NfaEngine>(*rest);
}

size_t
PlannedProgram::footprintBytes() const
{
    size_t n = sizeof(*this) + restToGlobal_.capacity() * sizeof(ElementId);
    if (prefilter_)
        n += prefilter_->footprintBytes();
    if (rest_)
        n += sizeof(NfaEngine) + rest_->footprintBytes();
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
    : program_(std::move(program))
{
    // Both cursors keep default options — record every report, no
    // guard: results() applies the caller's options after the merge,
    // and feed() owns the poll clock.
    if (program_->prefilter_) {
        prefilterSession_ = std::make_unique<PrefilteredNfa::Session>(
            *program_->prefilter_);
    }
    if (program_->rest_)
        restSession_ = std::make_unique<StreamingSession>(program_->rest_);
}

size_t
PlannedSession::feed(const uint8_t *data, size_t len)
{
    if (!guardStatus_.ok())
        return 0;
    if (restSession_) {
        restSession_->options.computeActiveSet =
            options.computeActiveSet;
    }
    size_t done = 0;
    while (done < len) {
        // The session owns the poll clock: both inner sessions are
        // fed in slices that never cross a kGuardCheckIntervalSymbols
        // boundary of *stream* position, so truncation lands on the
        // same poll points as the monolithic engines regardless of
        // how callers chunk their feeds.
        if (options.guard &&
            t_ % kGuardCheckIntervalSymbols == 0) {
            Status st = options.guard->check(t_);
            if (!st.ok()) {
                guardStatus_ = std::move(st);
                return done;
            }
        }
        const uint64_t untilPoll = kGuardCheckIntervalSymbols -
            t_ % kGuardCheckIntervalSymbols;
        const size_t step = static_cast<size_t>(
            std::min<uint64_t>(len - done, untilPoll));
        if (restSession_)
            restSession_->feed(data + done, step);
        if (prefilterSession_)
            prefilterSession_->feed(data + done, step);
        done += step;
        t_ += step;
    }
    return done;
}

SimResult
PlannedSession::results() const
{
    PartMerger merger(t_);
    if (stopped())
        merger.stop(t_, guardStatus_);
    if (restSession_)
        merger.add(restSession_->results(), program_->restToGlobal_);
    if (prefilterSession_) {
        SimResult pre;
        pre.reports = prefilterSession_->reports();
        pre.totalEnabled = prefilterSession_->totalEnabled();
        merger.add(std::move(pre));
    }
    return merger.finish(options);
}

void
PlannedSession::reset()
{
    if (prefilterSession_)
        prefilterSession_->reset();
    if (restSession_)
        restSession_->reset();
    t_ = 0;
    guardStatus_ = Status();
}

size_t
PlannedSession::footprintBytes() const
{
    size_t n = sizeof(*this);
    if (restSession_)
        n += restSession_->footprintBytes();
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
    // The two cursors' scratches together span at most every element,
    // and the window keeps at most the widest reach of any component
    // the planner could route to the prefilter (decide() without the
    // start-of-data veto, which only ever removes components) — so
    // this needs no plan and no program.
    uint64_t radius = 0, literal = 0;
    for (const analysis::ComponentProfile &p : profiles) {
        if (decide(p, false, opts) != PlanBackend::kPrefilter)
            continue;
        const PrefilterPattern pat = prefilterPattern(p);
        radius = std::max<uint64_t>(radius, pat.radius);
        literal = std::max<uint64_t>(literal, pat.literal.size());
    }
    return sizeof(PlannedSession) + sizeof(PrefilteredNfa::Session) +
        StreamingSession::cursorBytes(a.size(), maxReportRecords) +
        PrefilteredNfa::Session::bufferBound(radius + literal);
}

} // namespace azoo
