#include "engine/multidfa_engine.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

#include "analysis/profile.hh"
#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

MultiDfaEngine::MultiDfaEngine(const Automaton &a,
                               const MultiDfaOptions &opts)
    : a_(a), opts_(opts)
{
    uint32_t comp_count = 0;
    auto labels = a.connectedComponents(comp_count);

    std::vector<std::vector<ElementId>> members(comp_count);
    for (ElementId i = 0; i < a.size(); ++i)
        members[labels[i]].push_back(i);

    // Profiles are indexed by the same component ids (inferProfiles()
    // enumerates connectedComponents() labels in order); ignore a
    // vector that doesn't line up rather than trust stale facts.
    const std::vector<analysis::ComponentProfile> *profiles =
        opts_.profiles && opts_.profiles->size() == comp_count
            ? opts_.profiles
            : nullptr;
    const uint32_t budgetLog2 = static_cast<uint32_t>(
        std::bit_width(uint64_t(opts_.maxDfaStatesPerComponent)));
    uint64_t profileSkips = 0;

    // The fallback runs lazydfa's fixedPlan() over the components
    // that do not compile and skips the rest.
    const EnginePlan lazy = fixedPlan(EngineKind::kLazyDfa, a);
    EnginePlan fallback;
    for (uint32_t c = 0; c < comp_count; ++c) {
        const PlanBackend backend = lazy.decisions[c].backend;
        const bool has_counter = backend == PlanBackend::kInterpreter;
        // When the blowup estimate already dwarfs the state budget,
        // skip the eager subset construction that would grind to the
        // budget and bail anyway. The margin of one log2 step keeps
        // borderline estimates (the heuristic is not a bound) on the
        // exact try-it path.
        const bool predicted_blowup = profiles && !has_counter &&
            (*profiles)[c].blowupLog2 > budgetLog2 + 1;
        if (predicted_blowup)
            ++profileSkips;
        Dfa dfa;
        if (!has_counter && !predicted_blowup &&
            buildDfa(members[c], dfa)) {
            dfas_.push_back(std::move(dfa));
            fallback.add(c, PlanBackend::kSkip);
        } else {
            fallback.add(c, backend);
            ++fallbackComponentCount_;
        }
    }
    if (obs::kEnabled && profileSkips) {
        obs::Registry::global()
            .counter("engine.multidfa.profile_skips")
            .add(profileSkips);
    }

    if (fallbackComponentCount_) {
        PlanOptions popts;
        popts.lazyCacheBytes = opts_.lazyCacheBytes;
        fallbackEngine_ = std::make_unique<PlannedEngine>(
            std::make_shared<const PlannedProgram>(a, std::move(fallback),
                                                   popts));
    }
}

bool
MultiDfaEngine::buildDfa(const std::vector<ElementId> &members,
                         Dfa &dfa) const
{
    const auto m = static_cast<uint32_t>(members.size());

    // Local remap.
    std::unordered_map<ElementId, uint32_t> to_local;
    to_local.reserve(m);
    for (uint32_t i = 0; i < m; ++i)
        to_local[members[i]] = i;

    // Local views.
    std::vector<LabelWords> labels(m);
    std::vector<std::vector<uint32_t>> out(m);
    std::vector<uint8_t> reporting(m);
    std::vector<uint32_t> always_local; // all-input states
    std::vector<uint32_t> start0;       // enabled at cycle 0
    for (uint32_t i = 0; i < m; ++i) {
        const Element &e = a_.element(members[i]);
        for (int w = 0; w < 4; ++w)
            labels[i][w] = e.symbols.word(w);
        reporting[i] = e.reporting;
        out[i].reserve(e.out.size());
        for (auto t : e.out)
            out[i].push_back(to_local.at(t));
        if (e.start == StartType::kAllInput) {
            always_local.push_back(i);
            start0.push_back(i);
        } else if (e.start == StartType::kStartOfData) {
            start0.push_back(i);
        }
    }

    const SymbolClasses classes = symbolClasses(labels);
    dfa.classOf = classes.classOf;
    dfa.numClasses = classes.count();
    const std::vector<uint8_t> &rep = classes.rep;

    // Subset construction. DFA states are sorted local-id sets.
    std::map<std::vector<uint32_t>, uint32_t> state_ids;
    std::vector<std::vector<uint32_t>> state_sets;

    auto intern = [&](std::vector<uint32_t> set) -> uint32_t {
        auto it = state_ids.find(set);
        if (it != state_ids.end())
            return it->second;
        auto id = static_cast<uint32_t>(state_sets.size());
        state_ids.emplace(set, id);
        state_sets.push_back(std::move(set));
        return id;
    };

    std::vector<uint32_t> e0 = start0;
    std::sort(e0.begin(), e0.end());
    e0.erase(std::unique(e0.begin(), e0.end()), e0.end());
    dfa.start = intern(std::move(e0));

    // Report pool; index 0 is the empty list.
    dfa.pool.emplace_back();
    std::map<std::vector<std::pair<ElementId, uint32_t>>, uint32_t>
        pool_ids;

    std::vector<uint8_t> in_next(m, 0);

    for (uint32_t si = 0; si < state_sets.size(); ++si) {
        if (state_sets.size() > opts_.maxDfaStatesPerComponent)
            return false;
        // Row storage is appended lazily because state_sets grows.
        dfa.next.resize((si + 1) * dfa.numClasses);
        dfa.reportIdx.resize((si + 1) * dfa.numClasses, 0);

        // Copy: interning may invalidate references into state_sets.
        const std::vector<uint32_t> cur = state_sets[si];
        for (uint32_t cls = 0; cls < dfa.numClasses; ++cls) {
            const uint8_t s = rep[cls];
            std::vector<uint32_t> succ;
            std::vector<std::pair<ElementId, uint32_t>> reps;
            for (auto ls : cur) {
                if (!((labels[ls][s >> 6] >> (s & 63)) & 1))
                    continue;
                if (reporting[ls]) {
                    reps.emplace_back(members[ls],
                                      a_.element(members[ls]).reportCode);
                }
                for (auto t : out[ls]) {
                    if (!in_next[t]) {
                        in_next[t] = 1;
                        succ.push_back(t);
                    }
                }
            }
            for (auto al : always_local) {
                if (!in_next[al]) {
                    in_next[al] = 1;
                    succ.push_back(al);
                }
            }
            for (auto t : succ)
                in_next[t] = 0;
            std::sort(succ.begin(), succ.end());

            uint32_t tgt = intern(std::move(succ));
            dfa.next[si * dfa.numClasses + cls] = tgt;

            if (!reps.empty()) {
                std::sort(reps.begin(), reps.end());
                auto it = pool_ids.find(reps);
                if (it == pool_ids.end()) {
                    auto idx = static_cast<uint32_t>(dfa.pool.size());
                    std::vector<CellReport> list;
                    list.reserve(reps.size());
                    for (auto &[el, code] : reps)
                        list.push_back({el, code});
                    dfa.pool.push_back(std::move(list));
                    it = pool_ids.emplace(std::move(reps), idx).first;
                }
                dfa.reportIdx[si * dfa.numClasses + cls] = it->second;
            }
        }
    }

    dfa.numStates = static_cast<uint32_t>(state_sets.size());
    return true;
}

uint64_t
MultiDfaEngine::totalDfaStates() const
{
    uint64_t n = 0;
    for (const auto &d : dfas_)
        n += d.numStates;
    return n;
}

SimResult
MultiDfaEngine::simulate(const uint8_t *input, size_t len,
                         const SimOptions &opts) const
{
    // The compiled DFAs are one part, the lazy-DFA fallback over the
    // prefix they consumed is another, and one merge finishes both.
    PartMerger merger(len);
    const SimOptions inner = PartMerger::partOptions(opts);

    SimResult dfaPart;
    std::vector<uint32_t> state(dfas_.size());
    for (size_t d = 0; d < dfas_.size(); ++d)
        state[d] = dfas_[d].start;

    for (uint64_t t = 0; t < len; ++t) {
        // Same poll clock as NfaEngine, so a stop lands on the same
        // input position.
        if (inner.guard && (t & (kGuardCheckIntervalSymbols - 1)) == 0) {
            Status st = inner.guard->check(t);
            if (!st.ok()) {
                merger.stop(t, st);
                break;
            }
        }
        const uint8_t s = input[t];
        for (size_t d = 0; d < dfas_.size(); ++d) {
            const Dfa &dfa = dfas_[d];
            const uint32_t cell =
                state[d] * dfa.numClasses + dfa.classOf[s];
            const uint32_t ridx = dfa.reportIdx[cell];
            if (ridx) {
                for (const auto &r : dfa.pool[ridx])
                    dfaPart.reports.push_back({t, r.element, r.code});
            }
            state[d] = dfa.next[cell];
        }
    }
    merger.add(std::move(dfaPart));

    if (fallbackEngine_) {
        merger.add(fallbackEngine_->simulate(
            input, static_cast<size_t>(merger.consumed()), inner));
    }
    return merger.finish(opts);
}

} // namespace azoo
