#include "engine/lazy_dfa_engine.hh"

#include <algorithm>

#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/union_find.hh"

namespace azoo {

namespace {

/** Per-run metrics flush for the lazy half. Hits/misses are counted
 *  in simulateLazy() stack locals — never one atomic per symbol —
 *  and land here once per run. The hybrid path's fallback half is
 *  accounted separately under engine.nfa.* by the interpreter. */
void
noteLazyRun(const SimResult &res, uint64_t hits, uint64_t misses)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &runs = reg.counter("engine.lazy.runs");
    static obs::Counter &symbols = reg.counter("engine.lazy.symbols");
    static obs::Counter &cacheHits =
        reg.counter("engine.lazy.cache_hits");
    static obs::Counter &cacheMisses =
        reg.counter("engine.lazy.cache_misses");
    static obs::Counter &cacheFlushes =
        reg.counter("engine.lazy.cache_flushes");
    runs.inc();
    symbols.add(res.symbols);
    cacheHits.add(hits);
    cacheMisses.add(misses);
    cacheFlushes.add(res.lazyFlushes);
    if (!res.guardStatus.ok())
        obs::noteGuardStop("engine.lazy", res.guardStatus.code());
}

/** FNV-1a over the raw words of a sorted local-id set. */
uint64_t
hashSet(const std::vector<uint32_t> &set)
{
    uint64_t h = 1469598103934665603ULL;
    for (uint32_t v : set) {
        h ^= v;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Accounted footprint of one interned state (members + one
 *  transition/report row + map overhead). */
size_t
stateBytes(size_t setSize, size_t numClasses)
{
    return 64 + setSize * sizeof(uint32_t) +
        numClasses * 2 * sizeof(uint32_t);
}

/** Accounted footprint of one pooled report list. */
size_t
poolBytes(size_t listSize)
{
    return 48 + listSize * sizeof(std::pair<ElementId, uint32_t>);
}

} // namespace

LazyDfaEngine::LazyDfaEngine(const Automaton &a,
                             const LazyDfaOptions &opts)
    : a_(a), opts_(opts)
{
    const size_t n = a.size();

    // Components over activation *and* reset edges: a counter must
    // stay with everything that counts or resets it, so the split
    // below can never cut a counter off from its sources.
    UnionFind uf(n);
    for (ElementId i = 0; i < n; ++i) {
        for (auto t : a.element(i).out)
            uf.unite(i, t);
        for (auto t : a.element(i).resetOut)
            uf.unite(i, t);
    }
    std::vector<uint8_t> rootHasCounter(n, 0);
    for (ElementId i = 0; i < n; ++i) {
        if (a.element(i).kind == ElementKind::kCounter)
            rootHasCounter[uf.find(i)] = 1;
    }

    std::vector<ElementId> lazyMembers, fallbackMembers;
    for (ElementId i = 0; i < n; ++i) {
        if (rootHasCounter[uf.find(i)])
            fallbackMembers.push_back(i);
        else
            lazyMembers.push_back(i);
    }
    std::vector<uint8_t> fallbackRootSeen(n, 0);
    for (ElementId i : fallbackMembers) {
        const uint32_t r = uf.find(i);
        if (!fallbackRootSeen[r]) {
            fallbackRootSeen[r] = 1;
            ++fallbackComponentCount_;
        }
    }

    buildLazyPart(lazyMembers);
    if (!fallbackMembers.empty())
        buildFallback(a, fallbackMembers);

    pool_.emplace_back(); // index 0 = the empty report list
}

void
LazyDfaEngine::buildLazyPart(const std::vector<ElementId> &members)
{
    const auto m = static_cast<uint32_t>(members.size());
    globalId_ = members;

    std::vector<uint32_t> toLocal(a_.size(), kUnknown);
    for (uint32_t i = 0; i < m; ++i)
        toLocal[members[i]] = i;

    std::vector<uint8_t> isAllInput(m, 0);
    label_.resize(m);
    reporting_.assign(m, 0);
    reportCode_.assign(m, 0);
    edgeBegin_.assign(m + 1, 0);
    for (uint32_t i = 0; i < m; ++i) {
        const Element &e = a_.element(members[i]);
        for (int w = 0; w < 4; ++w)
            label_[i][w] = e.symbols.word(w);
        reporting_[i] = e.reporting;
        reportCode_[i] = e.reportCode;
        if (e.start == StartType::kAllInput) {
            isAllInput[i] = 1;
            for (int v = 0; v < 256; ++v) {
                if (e.symbols.test(static_cast<uint8_t>(v)))
                    matchingAllInput_[v].push_back(i);
            }
        } else if (e.start == StartType::kStartOfData) {
            start0_.push_back(i);
        }
    }
    // CSR with all-input targets pre-filtered: they never enter a
    // state-set (the matchingAllInput_ index covers them per byte),
    // exactly mirroring NfaEngine's isAllInput_ skip.
    for (uint32_t i = 0; i < m; ++i) {
        uint32_t deg = 0;
        for (auto t : a_.element(members[i]).out) {
            if (!isAllInput[toLocal[t]])
                ++deg;
        }
        edgeBegin_[i + 1] = edgeBegin_[i] + deg;
    }
    edgeTarget_.reserve(edgeBegin_[m]);
    for (uint32_t i = 0; i < m; ++i) {
        for (auto t : a_.element(members[i]).out) {
            const uint32_t lt = toLocal[t];
            if (!isAllInput[lt])
                edgeTarget_.push_back(lt);
        }
    }

    // Symbol equivalence classes over the *distinct* lazy charsets:
    // bytes no lazy state can tell apart share one transition row,
    // which shrinks both cache rows and the number of distinct cells
    // a hot region touches.
    std::vector<const CharSet *> distinct;
    {
        std::unordered_map<uint64_t, std::vector<const CharSet *>> seen;
        for (uint32_t i = 0; i < m; ++i) {
            const CharSet &cs = a_.element(members[i]).symbols;
            auto &bucket = seen[cs.hash()];
            bool dup = false;
            for (const auto *c : bucket) {
                if (*c == cs) {
                    dup = true;
                    break;
                }
            }
            if (!dup) {
                bucket.push_back(&cs);
                distinct.push_back(&cs);
            }
        }
    }
    std::map<std::vector<uint8_t>, uint8_t> sigToClass;
    std::vector<uint8_t> sig(distinct.size());
    for (int b = 0; b < 256; ++b) {
        for (size_t d = 0; d < distinct.size(); ++d)
            sig[d] = distinct[d]->test(static_cast<uint8_t>(b));
        auto it = sigToClass.find(sig);
        if (it == sigToClass.end()) {
            // At most 256 signatures exist for 256 bytes, so the
            // class id always fits a byte.
            it = sigToClass.emplace(
                sig, static_cast<uint8_t>(sigToClass.size())).first;
            classRep_.push_back(static_cast<uint8_t>(b));
        }
        classOf_[b] = it->second;
    }
    numClasses_ = static_cast<uint32_t>(
        std::max<size_t>(1, sigToClass.size()));
    if (classRep_.empty())
        classRep_.push_back(0);

    inNext_.assign(m, 0);
}

void
LazyDfaEngine::buildFallback(const Automaton &a,
                             const std::vector<ElementId> &members)
{
    fallbackToGlobal_ = members;
    fallback_ = std::make_unique<Automaton>(
        subAutomaton(a, members, a.name() + ".lazy-fallback"));
    fallbackEngine_ = std::make_unique<NfaEngine>(*fallback_);
}

uint32_t
LazyDfaEngine::intern(const std::vector<uint32_t> &set)
{
    const uint64_t h = hashSet(set);
    auto &bucket = buckets_[h];
    for (uint32_t id : bucket) {
        if (members_[id] == set)
            return id;
    }
    const auto id = static_cast<uint32_t>(members_.size());
    members_.push_back(set);
    bucket.push_back(id);
    next_.resize(members_.size() * numClasses_, kUnknown);
    reportIdx_.resize(members_.size() * numClasses_, 0);
    bytesUsed_ += stateBytes(set.size(), numClasses_);
    return id;
}

uint32_t
LazyDfaEngine::internReports(
    const std::vector<std::pair<ElementId, uint32_t>> &reps)
{
    auto it = poolIds_.find(reps);
    if (it != poolIds_.end())
        return it->second;
    const auto idx = static_cast<uint32_t>(pool_.size());
    pool_.push_back(reps);
    poolIds_.emplace(reps, idx);
    bytesUsed_ += poolBytes(reps.size());
    return idx;
}

void
LazyDfaEngine::flushCache()
{
    members_.clear();
    buckets_.clear();
    next_.clear();
    reportIdx_.clear();
    pool_.clear();
    pool_.emplace_back();
    poolIds_.clear();
    cachedTransitions_ = 0;
    bytesUsed_ = 0;
    startState_ = kUnknown;
    ++flushes_;
}

size_t
LazyDfaEngine::fillCell(uint32_t &cur, uint32_t cls)
{
    // Copy: interning below may reallocate members_.
    const std::vector<uint32_t> curSet = members_[cur];
    const uint8_t rep = classRep_[cls];
    const uint32_t word = rep >> 6;
    const uint64_t bit = uint64_t(1) << (rep & 63);

    succScratch_.clear();
    repScratch_.clear();
    auto onMatch = [&](uint32_t ls) {
        if (reporting_[ls])
            repScratch_.emplace_back(globalId_[ls], reportCode_[ls]);
        for (uint32_t k = edgeBegin_[ls]; k < edgeBegin_[ls + 1]; ++k) {
            const uint32_t tgt = edgeTarget_[k];
            if (!inNext_[tgt]) {
                inNext_[tgt] = 1;
                succScratch_.push_back(tgt);
            }
        }
    };
    for (uint32_t ls : curSet) {
        if (label_[ls][word] & bit)
            onMatch(ls);
    }
    for (uint32_t al : matchingAllInput_[rep])
        onMatch(al);
    for (uint32_t t : succScratch_)
        inNext_[t] = 0;
    std::sort(succScratch_.begin(), succScratch_.end());
    std::sort(repScratch_.begin(), repScratch_.end());

    // Budget check with a worst-case (both inserts are new) estimate.
    // Keeping at least the current and next state guarantees forward
    // progress even when a single transition overshoots the budget.
    const size_t need = stateBytes(succScratch_.size(), numClasses_) +
        poolBytes(repScratch_.size());
    if (bytesUsed_ + need > opts_.cacheBytes && members_.size() > 2) {
        flushCache();
        cur = intern(curSet);
    }

    const uint32_t tgt = intern(succScratch_);
    const uint32_t ridx =
        repScratch_.empty() ? 0 : internReports(repScratch_);
    const size_t cell = static_cast<size_t>(cur) * numClasses_ + cls;
    next_[cell] = tgt;
    reportIdx_[cell] = ridx;
    ++cachedTransitions_;
    return cell;
}

void
LazyDfaEngine::simulateLazy(const uint8_t *input, size_t len,
                            const SimOptions &opts, SimResult &res)
{
    const uint64_t flushesBefore = flushes_;
    uint64_t consumed = len;
    uint64_t cacheHits = 0, cacheMisses = 0;
    if (!globalId_.empty()) {
        if (startState_ == kUnknown)
            startState_ = intern(start0_);
        uint32_t cur = startState_;
        for (uint64_t t = 0; t < len; ++t) {
            if (opts.guard &&
                (t & (kGuardCheckIntervalSymbols - 1)) == 0) {
                Status st = opts.guard->check(t);
                if (!st.ok()) {
                    res.guardStatus = std::move(st);
                    consumed = t;
                    break;
                }
            }
            // The state-set is exactly NfaEngine's edge-enabled set
            // (all-input starts excluded), so its size *is* the
            // active set for this cycle.
            if (opts.computeActiveSet)
                res.totalEnabled += members_[cur].size();

            const uint32_t cls = classOf_[input[t]];
            size_t cell = static_cast<size_t>(cur) * numClasses_ + cls;
            if (next_[cell] == kUnknown) {
                cell = fillCell(cur, cls);
                ++cacheMisses;
            } else {
                ++cacheHits;
            }

            const uint32_t ridx = reportIdx_[cell];
            if (ridx) {
                const auto &list = pool_[ridx];
                res.reportCount += list.size();
                ++res.reportingCycles;
                if (opts.recordReports) {
                    for (const auto &[el, code] : list) {
                        if (res.reports.size() >= opts.reportRecordLimit)
                            break;
                        res.reports.push_back({t, el, code});
                    }
                }
                if (opts.countByCode) {
                    for (const auto &[el, code] : list)
                        ++res.byCode[code];
                }
            }
            cur = next_[cell];
        }
    }
    res.symbols = consumed;
    res.lazyFlushes = flushes_ - flushesBefore;
    res.lazyStates = members_.size();
    res.lazyFallbackComponents = fallbackComponentCount_;
    noteLazyRun(res, cacheHits, cacheMisses);
}

SimResult
LazyDfaEngine::simulate(const uint8_t *input, size_t len,
                        const SimOptions &opts)
{
    SimResult res;
    if (!fallbackEngine_) {
        // Pure lazy path: reports stream out already in canonical
        // (offset, element, code) order, so everything is computed
        // directly with the caller's options.
        simulateLazy(input, len, opts, res);
        return res;
    }

    // Hybrid path: both halves record their full report streams so
    // the merge can reconstruct reportingCycles (distinct offsets)
    // and byCode exactly; the caller's recording options are applied
    // to the merged stream afterwards.
    SimOptions inner;
    inner.recordReports = true;
    inner.reportRecordLimit = ~uint64_t(0);
    inner.countByCode = false;
    inner.computeActiveSet = opts.computeActiveSet;
    inner.guard = opts.guard;

    SimResult lz;
    simulateLazy(input, len, inner, lz);
    // The fallback interpreter only scans the prefix the lazy half
    // consumed; if its guard poll truncates even earlier, the merged
    // result shrinks to the shorter prefix below.
    SimResult fb = fallbackEngine_->simulate(
        input, static_cast<size_t>(lz.symbols), fallbackScratch_,
        inner);
    for (Report &r : fb.reports)
        r.element = fallbackToGlobal_[r.element];
    // The interpreter emits same-cycle reports in propagation order;
    // normalize, then merge the two (now both canonical) streams.
    std::sort(fb.reports.begin(), fb.reports.end());

    const uint64_t m = std::min(lz.symbols, fb.symbols);
    if (lz.symbols > m) {
        std::erase_if(lz.reports, [m](const Report &r) {
            return r.offset >= m;
        });
        lz.reportCount = lz.reports.size();
    }
    res.symbols = m;
    res.guardStatus =
        !fb.guardStatus.ok() ? fb.guardStatus : lz.guardStatus;
    res.reportCount = lz.reportCount + fb.reportCount;
    // When truncated, the two halves may have scanned slightly
    // different prefixes; totalEnabled then covers their union and
    // can overcount the merged prefix by up to one guard interval.
    res.totalEnabled = lz.totalEnabled + fb.totalEnabled;
    res.lazyFlushes = lz.lazyFlushes;
    res.lazyStates = lz.lazyStates;
    res.lazyFallbackComponents = fallbackComponentCount_;

    res.reports.resize(lz.reports.size() + fb.reports.size());
    std::merge(lz.reports.begin(), lz.reports.end(),
               fb.reports.begin(), fb.reports.end(),
               res.reports.begin());

    uint64_t lastOffset = ~uint64_t(0);
    for (const Report &r : res.reports) {
        if (r.offset != lastOffset) {
            ++res.reportingCycles;
            lastOffset = r.offset;
        }
        if (opts.countByCode)
            ++res.byCode[r.code];
    }

    if (!opts.recordReports)
        res.reports.clear();
    else if (res.reports.size() > opts.reportRecordLimit)
        res.reports.resize(
            static_cast<size_t>(opts.reportRecordLimit));
    return res;
}

} // namespace azoo
