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
        return p.blowupLog2 <= opts.maxLazyBlowupLog2
            ? PlanBackend::kLazyDfa
            : PlanBackend::kInterpreter;
    }
    // Acyclic, counter-free from here on.
    if (p.anchored && p.maxActivationDepth != analysis::kUnboundedLen)
        return PlanBackend::kAnchoredPrefix;
    if (opts.enablePrefilter &&
        p.cls == ComponentClass::kLiteralChain &&
        p.mandatoryLiteral.size() >= opts.minScanLiteral &&
        p.maxMatchLen != analysis::kUnboundedLen && !hasSod) {
        return PlanBackend::kPrefilter;
    }
    // Unanchored acyclic components restart at every input offset, so
    // a lazy-DFA state-set encodes the phase of every live run and
    // rarely repeats — the transition cache churns instead of
    // converging (mesh kernels are the worst case). The enabled-set
    // interpreter pays per active state but never constructs
    // state-sets.
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
    popts_ = opts;
    plan_ = planComponents(a, profiles, opts);
    notePlan(plan_);

    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);

    auto wantedFor = [&](PlanBackend b) {
        std::vector<uint8_t> wanted(count, 0);
        for (const ComponentDecision &d : plan_.decisions) {
            if (d.backend == b)
                wanted[d.componentId] = 1;
        }
        return wanted;
    };

    // Prefilter group: sub-automaton plus one scan literal + window
    // radius per component.
    {
        const std::vector<uint8_t> wanted =
            wantedFor(PlanBackend::kPrefilter);
        std::vector<ElementId> toGlobal;
        auto sub = buildGroup(a, comp, wanted, ".prefilter", toGlobal);
        if (sub) {
            std::vector<PrefilterPattern> pats;
            for (const analysis::ComponentProfile &p : profiles) {
                if (!wanted[p.componentId])
                    continue;
                PrefilterPattern pat;
                pat.literal = p.mandatoryLiteral.substr(
                    0, opts.maxScanLiteral);
                // +2 slop over the exact reach so off-by-one drift in
                // the length facts can never clip a match.
                pat.radius = p.maxMatchLen + 2;
                pats.push_back(std::move(pat));
            }
            prefilter_ = std::make_unique<PrefilteredNfa>(
                *sub, std::move(toGlobal), std::move(pats));
        }
    }

    {
        const std::vector<uint8_t> wanted =
            wantedFor(PlanBackend::kAnchoredPrefix);
        anchoredSub_ =
            buildGroup(a, comp, wanted, ".anchored", anchoredToGlobal_);
        if (anchoredSub_) {
            for (const analysis::ComponentProfile &p : profiles) {
                if (wanted[p.componentId]) {
                    anchoredPrefix_ = std::max<uint64_t>(
                        anchoredPrefix_,
                        uint64_t(p.maxActivationDepth) + 2);
                }
            }
            anchoredEngine_ =
                std::make_unique<NfaEngine>(*anchoredSub_);
        }
    }

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
    // Single-group fast path: when one backend covers every non-skip
    // component it already runs the whole input with the serial guard
    // contract, so delegating with the caller's options (instead of
    // full-record + merge) keeps counter-coupled plans at interpreter
    // parity. Only the report ids need the remap, plus a canonical
    // sort; the caller's record limit is applied after the sort so
    // the recorded subset matches the merge path's.
    const bool soloInterp = interpEngine_ && !lazyEngine_ &&
        !anchoredEngine_ && !prefilter_;
    const bool soloLazy = lazyEngine_ && !interpEngine_ &&
        !anchoredEngine_ && !prefilter_;
    if (soloInterp || soloLazy) {
        lastPrefilterStats_ = PrefilterStats();
        SimOptions inner = uopts;
        if (inner.recordReports)
            inner.reportRecordLimit = ~uint64_t(0);
        SimResult r = soloInterp
            ? interpEngine_->simulate(input, len, interpScratch_,
                                      inner)
            : lazyEngine_->simulate(input, len, inner);
        const std::vector<ElementId> &toGlobal =
            soloInterp ? interpToGlobal_ : lazyToGlobal_;
        for (Report &rep : r.reports)
            rep.element = toGlobal[rep.element];
        std::sort(r.reports.begin(), r.reports.end());
        if (r.reports.size() > uopts.reportRecordLimit)
            r.reports.resize(
                static_cast<size_t>(uopts.reportRecordLimit));
        return r;
    }

    // Backends record everything; the caller's recording options
    // apply after the merge (same contract as simulateSharded()).
    SimOptions inner;
    inner.recordReports = true;
    inner.reportRecordLimit = ~uint64_t(0);
    inner.countByCode = false;
    inner.computeActiveSet = uopts.computeActiveSet;
    inner.guard = uopts.guard;

    uint64_t consumed = len;
    Status gstat;
    auto truncate = [&](uint64_t sym, const Status &st) {
        if (sym < consumed || gstat.ok()) {
            consumed = std::min(consumed, sym);
            gstat = st;
        }
    };

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
                truncate(t, st);
                break;
            }
        }
    }

    std::vector<Report> reports;
    SimResult out;

    auto collect = [&](SimResult &&r,
                       const std::vector<ElementId> &toGlobal) {
        for (Report &rep : r.reports)
            rep.element = toGlobal[rep.element];
        reports.insert(reports.end(), r.reports.begin(),
                       r.reports.end());
        out.totalEnabled += r.totalEnabled;
        out.lazyFlushes += r.lazyFlushes;
        out.lazyStates += r.lazyStates;
        out.lazyFallbackComponents += r.lazyFallbackComponents;
        if (!r.guardStatus.ok())
            truncate(r.symbols, r.guardStatus);
    };

    if (interpEngine_ && consumed > 0) {
        collect(interpEngine_->simulate(input, len, interpScratch_,
                                        inner),
                interpToGlobal_);
    }
    if (lazyEngine_ && consumed > 0) {
        collect(lazyEngine_->simulate(input, len, inner),
                lazyToGlobal_);
    }
    if (anchoredEngine_ && consumed > 0) {
        // Anchored components quiesce after anchoredPrefix_ symbols,
        // so a completed prefix run covers the whole input.
        const size_t alen = static_cast<size_t>(
            std::min<uint64_t>(len, anchoredPrefix_));
        collect(anchoredEngine_->simulate(input, alen,
                                          anchoredScratch_, inner),
                anchoredToGlobal_);
    }
    lastPrefilterStats_ = PrefilterStats();
    if (prefilter_ && consumed > 0) {
        PrefilteredNfa::RunResult rr = prefilter_->run(
            input, len, uopts.guard, prefilterScratch_);
        reports.insert(reports.end(), rr.reports.begin(),
                       rr.reports.end());
        out.totalEnabled += rr.totalEnabled;
        lastPrefilterStats_ = rr.stats;
        if (!rr.guardStatus.ok())
            truncate(rr.symbols, rr.guardStatus);
    }

    // Merge to the shortest consumed prefix. Every backend's report
    // stream is complete over [0, consumed) (each ran at least that
    // far), so clipping + canonical sort is exact — no re-simulation
    // needed, unlike simulateSharded(), because backends are built
    // once and reports are never sampled.
    out.symbols = consumed;
    out.guardStatus = gstat;
    if (consumed < len) {
        std::erase_if(reports, [consumed](const Report &r) {
            return r.offset >= consumed;
        });
    }
    std::sort(reports.begin(), reports.end());
    out.reportCount = reports.size();
    uint64_t lastOffset = ~uint64_t(0);
    for (const Report &r : reports) {
        if (r.offset != lastOffset) {
            ++out.reportingCycles;
            lastOffset = r.offset;
        }
        if (uopts.countByCode)
            ++out.byCode[r.code];
    }
    if (uopts.recordReports) {
        if (reports.size() > uopts.reportRecordLimit)
            reports.resize(
                static_cast<size_t>(uopts.reportRecordLimit));
        out.reports = std::move(reports);
    }
    return out;
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
{
    build(a, profiles, opts);
}

void
PlannedSession::build(const Automaton &a,
                      const std::vector<analysis::ComponentProfile>
                          &profiles,
                      const PlanOptions &opts)
{
    plan_ = planComponents(a, profiles, opts);
    notePlan(plan_);

    uint32_t count = 0;
    const std::vector<uint32_t> comp = a.connectedComponents(count);

    std::vector<uint8_t> wantedPre(count, 0), wantedRest(count, 0);
    for (const ComponentDecision &d : plan_.decisions) {
        if (d.backend == PlanBackend::kPrefilter)
            wantedPre[d.componentId] = 1;
        else if (d.backend != PlanBackend::kSkip)
            wantedRest[d.componentId] = 1;
    }

    {
        std::vector<ElementId> toGlobal;
        auto sub = buildGroup(a, comp, wantedPre, ".prefilter",
                              toGlobal);
        if (sub) {
            std::vector<PrefilterPattern> pats;
            for (const analysis::ComponentProfile &p : profiles) {
                if (!wantedPre[p.componentId])
                    continue;
                PrefilterPattern pat;
                pat.literal = p.mandatoryLiteral.substr(
                    0, opts.maxScanLiteral);
                pat.radius = p.maxMatchLen + 2;
                pats.push_back(std::move(pat));
            }
            prefilter_ = std::make_unique<PrefilteredNfa>(
                *sub, std::move(toGlobal), std::move(pats));
            prefilterSession_ =
                std::make_unique<PrefilteredNfa::Session>(*prefilter_);
        }
    }

    restSub_ = buildGroup(a, comp, wantedRest, ".rest", restToGlobal_);
    if (restSub_) {
        restSession_ = std::make_unique<StreamingSession>(*restSub_);
        restSession_->options.recordReports = true;
        restSession_->options.reportRecordLimit = ~uint64_t(0);
        restSession_->options.countByCode = false;
        restSession_->options.guard = nullptr;
    }
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
    SimResult out;
    out.symbols = t_;
    out.guardStatus = guardStatus_;

    std::vector<Report> reports;
    if (restSession_) {
        const SimResult &r = restSession_->results();
        reports.reserve(r.reports.size());
        for (const Report &rep : r.reports) {
            reports.push_back(
                {rep.offset, restToGlobal_[rep.element], rep.code});
        }
        out.totalEnabled += r.totalEnabled;
    }
    if (prefilterSession_) {
        const std::vector<Report> &pre = prefilterSession_->reports();
        reports.insert(reports.end(), pre.begin(), pre.end());
        out.totalEnabled += prefilterSession_->totalEnabled();
    }

    std::sort(reports.begin(), reports.end());
    out.reportCount = reports.size();
    uint64_t lastOffset = ~uint64_t(0);
    for (const Report &r : reports) {
        if (r.offset != lastOffset) {
            ++out.reportingCycles;
            lastOffset = r.offset;
        }
        if (options.countByCode)
            ++out.byCode[r.code];
    }
    if (options.recordReports) {
        if (reports.size() > options.reportRecordLimit)
            reports.resize(
                static_cast<size_t>(options.reportRecordLimit));
        out.reports = std::move(reports);
    }
    return out;
}

void
PlannedSession::reset()
{
    if (prefilterSession_)
        prefilterSession_->reset();
    if (restSession_) {
        restSession_->reset();
        restSession_->options.recordReports = true;
        restSession_->options.reportRecordLimit = ~uint64_t(0);
        restSession_->options.countByCode = false;
        restSession_->options.guard = nullptr;
    }
    t_ = 0;
    guardStatus_ = Status();
}

size_t
PlannedSession::footprintBytes() const
{
    // Graph-form sub-automaton copies: Elements are value types (the
    // charset bitmap is inline) plus their edge vectors.
    auto automatonBytes = [](const Automaton &a) {
        size_t n = a.size() * sizeof(Element);
        for (const Element &e : a.elements())
            n += (e.out.capacity() + e.resetOut.capacity()) *
                sizeof(ElementId);
        return n;
    };
    size_t n = sizeof(*this);
    if (restSub_)
        n += automatonBytes(*restSub_);
    n += restToGlobal_.capacity() * sizeof(ElementId);
    if (restSession_)
        n += restSession_->footprintBytes();
    if (prefilter_)
        n += prefilter_->footprintBytes();
    if (prefilterSession_)
        n += prefilterSession_->footprintBytes();
    return n;
}

} // namespace azoo
