#include "engine/lazy_dfa_engine.hh"

#include <algorithm>

#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace azoo {

namespace {

/** Per-feed metrics flush. Hits and misses are counted in feed()
 *  stack locals — never one atomic per symbol — and land here once
 *  per call. Components interpreted beside the DFA are accounted
 *  under engine.nfa.* by the interpreter. */
void
noteLazyFeed(uint64_t symbols, uint64_t hits, uint64_t misses)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &symbolsC = reg.counter("engine.lazy.symbols");
    static obs::Counter &cacheHits =
        reg.counter("engine.lazy.cache_hits");
    static obs::Counter &cacheMisses =
        reg.counter("engine.lazy.cache_misses");
    symbolsC.add(symbols);
    cacheHits.add(hits);
    cacheMisses.add(misses);
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

// ---------------------------------------------------------------------
// LazyDfaProgram

LazyDfaProgram::LazyDfaProgram(const NfaExecImage &image, size_t count)
    : t_(image), count_(static_cast<uint32_t>(count))
{
    // Id lists are ascending, so the ids below count_ are prefixes.
    if (!t_.counters.empty() && t_.counters.front() < count_)
        panic("LazyDfaProgram: counters cannot be determinized");
    start_ = t_.startOfData.first(static_cast<size_t>(
        std::lower_bound(t_.startOfData.begin(), t_.startOfData.end(),
                         count_) -
        t_.startOfData.begin()));

    // Bytes no state can tell apart share one transition column,
    // which shrinks both cache rows and the number of distinct cells
    // a hot region touches.
    classes_ = azoo::symbolClasses(t_.label.first(count_));
    numClasses_ = classes_.count();
}

void
LazyDfaProgram::begin(LazyDfaCache &c, LazyDfaCursor &cur) const
{
    if (c.startState_ == LazyDfaCache::kUnknown) {
        c.startState_ =
            c.intern(*this, std::vector<uint32_t>(start_.begin(),
                                                  start_.end()));
    }
    cur.state = c.startState_;
    cur.pos = 0;
}

size_t
LazyDfaProgram::feed(LazyDfaCache &c, LazyDfaCursor &cur,
                     const uint8_t *data, size_t len,
                     const SimOptions &opts, SimResult &res) const
{
    const uint64_t t0 = cur.pos;
    // Loop-invariant options in locals: the stores into res would
    // otherwise reload them every symbol and crowd the cache out of
    // the registers.
    const RunGuard *const guard = opts.guard;
    const bool countActive = opts.computeActiveSet;
    uint64_t hits = 0, misses = 0, enabled = 0;
    uint32_t s = cur.state;
    size_t i = 0;
    for (; i < len; ++i) {
        const uint64_t t = t0 + i;
        if (guard && (t & (kGuardCheckIntervalSymbols - 1)) == 0) {
            Status st = guard->check(t);
            if (!st.ok()) {
                res.guardStatus = std::move(st);
                break;
            }
        }
        const uint32_t cls = classes_.classOf[data[i]];
        size_t cell = static_cast<size_t>(s) * numClasses_ + cls;
        if (c.next_[cell] == LazyDfaCache::kUnknown) {
            cell = c.fill(*this, s, cls);
            if (cell == LazyDfaCache::kNoCell)
                break;
            ++misses;
        } else {
            ++hits;
        }
        // The state-set is exactly NfaEngine's edge-enabled set
        // (all-input starts excluded), so its size *is* the active
        // set for this cycle.
        if (countActive)
            enabled += c.members_[s].size();

        const uint32_t ridx = c.reportIdx_[cell];
        if (ridx) {
            const auto &list = c.pool_[ridx];
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
        s = c.next_[cell];
    }
    cur.state = s;
    cur.pos = t0 + i;
    res.symbols += i;
    res.totalEnabled += enabled;
    res.lazyStates = c.members_.size();
    c.hits_ += hits;
    c.misses_ += misses;
    noteLazyFeed(i, hits, misses);
    return i;
}

// ---------------------------------------------------------------------
// LazyDfaCache

uint32_t
LazyDfaCache::intern(const LazyDfaProgram &p,
                     const std::vector<uint32_t> &set)
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
    next_.resize(members_.size() * p.numClasses_, kUnknown);
    reportIdx_.resize(members_.size() * p.numClasses_, 0);
    bytesUsed_ += stateBytes(set.size(), p.numClasses_);
    return id;
}

uint32_t
LazyDfaCache::internReports(
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
LazyDfaCache::release()
{
    LazyDfaCache empty(budget_);
    empty.hits_ = hits_;
    empty.misses_ = misses_;
    *this = std::move(empty);
}

size_t
LazyDfaCache::fill(const LazyDfaProgram &p, uint32_t cur, uint32_t cls)
{
    const NfaExecImage &t = p.t_;
    if (inNext_.size() != p.count_) {
        // The successor marks are cache storage too.
        bytesUsed_ += p.count_ - inNext_.size();
        inNext_.assign(p.count_, 0);
    }
    const uint8_t rep = p.classes_.rep[cls];
    const uint32_t word = rep >> 6;
    const uint64_t bit = uint64_t(1) << (rep & 63);

    succ_.clear();
    reps_.clear();
    auto onMatch = [&](uint32_t id) {
        if (t.reporting[id])
            reps_.emplace_back(id, t.reportCode[id]);
        for (uint32_t k = t.edgeBegin[id]; k < t.edgeBegin[id + 1]; ++k) {
            const uint32_t tgt = t.edgeTarget[k];
            // All-input targets are permanently enabled (the per-byte
            // index covers them) and never join a state-set, exactly
            // mirroring NfaEngine.
            if (!t.isAllInput[tgt] && !inNext_[tgt]) {
                inNext_[tgt] = 1;
                succ_.push_back(tgt);
            }
        }
    };
    for (uint32_t id : members_[cur]) {
        if (t.label[id][word] & bit)
            onMatch(id);
    }
    for (uint32_t k = t.maiBegin[rep];
         k < t.maiBegin[rep + 1] && t.maiTarget[k] < p.count_; ++k)
        onMatch(t.maiTarget[k]);
    for (uint32_t id : succ_)
        inNext_[id] = 0;
    std::sort(succ_.begin(), succ_.end());
    std::sort(reps_.begin(), reps_.end());

    // Budget check with a worst-case (both inserts are new) estimate.
    const size_t need = stateBytes(succ_.size(), p.numClasses_) +
        poolBytes(reps_.size());
    if (bytesUsed_ + need > budget_)
        return kNoCell;

    const uint32_t tgt = intern(p, succ_);
    const uint32_t ridx = reps_.empty() ? 0 : internReports(reps_);
    const size_t cell = static_cast<size_t>(cur) * p.numClasses_ + cls;
    next_[cell] = tgt;
    reportIdx_[cell] = ridx;
    ++cachedTransitions_;
    return cell;
}

size_t
LazyDfaCache::footprintBytes() const
{
    using Entry = std::pair<ElementId, uint32_t>;
    // Node-based containers are charged one fixed overhead per entry
    // (the same constants the budget uses).
    size_t n = members_.capacity() * sizeof(members_[0]) +
        (next_.capacity() + reportIdx_.capacity() + succ_.capacity()) *
        sizeof(uint32_t) +
        inNext_.capacity() + reps_.capacity() * sizeof(Entry) +
        pool_.capacity() * sizeof(pool_[0]) +
        buckets_.bucket_count() * sizeof(void *);
    for (const auto &m : members_)
        n += 64 + m.capacity() * sizeof(uint32_t);
    for (const auto &l : pool_)
        n += 48 + 2 * l.capacity() * sizeof(Entry); // list + map key
    return n;
}

} // namespace azoo
