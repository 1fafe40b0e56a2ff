#include "engine/prefilter.hh"

#include <bit>

#include "engine/run_guard.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace azoo {

void
notePrefilter(uint64_t candidates, uint64_t windowBytes,
              uint64_t skippedBytes)
{
    if (!obs::kEnabled)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &cand = reg.counter("prefilter.candidates");
    static obs::Counter &win = reg.counter("prefilter.window_bytes");
    static obs::Counter &skip = reg.counter("prefilter.bytes_skipped");
    cand.add(candidates);
    win.add(windowBytes);
    skip.add(skippedBytes);
}

// ---------------------------------------------------------------------
// LiteralScanner

LiteralScanner::LiteralScanner(std::vector<std::string> patterns)
    : pats_(std::move(patterns))
{
    if (pats_.empty())
        panic("LiteralScanner: no patterns");
    minLen_ = pats_[0].size();
    maxLen_ = pats_[0].size();
    for (const std::string &p : pats_) {
        if (p.size() < 2)
            panic("LiteralScanner: pattern shorter than one 2-gram");
        minLen_ = std::min(minLen_, p.size());
        maxLen_ = std::max(maxLen_, p.size());
    }
    if (pats_.size() == 1)
        return; // first-byte sweep; no tables

    // Wu-Manber over 2-grams: shift_[g] is how far the probe may
    // advance when gram g ends at the probe point; 0 sends it to the
    // bucket chain of patterns whose first minLen_ bytes end in g.
    const size_t m = minLen_;
    shift_.assign(1u << 16,
                  static_cast<uint16_t>(m - 1));
    bucketHead_.assign(1u << 16, -1);
    bucketNext_.assign(pats_.size(), -1);
    for (size_t pi = 0; pi < pats_.size(); ++pi) {
        const std::string &p = pats_[pi];
        for (size_t j = 1; j < m; ++j) {
            const uint32_t g =
                gram(static_cast<uint8_t>(p[j - 1]),
                     static_cast<uint8_t>(p[j]));
            shift_[g] = std::min(shift_[g],
                                 static_cast<uint16_t>(m - 1 - j));
        }
        const uint32_t tail =
            gram(static_cast<uint8_t>(p[m - 2]),
                 static_cast<uint8_t>(p[m - 1]));
        bucketNext_[pi] = bucketHead_[tail];
        bucketHead_[tail] = static_cast<int32_t>(pi);
    }
}

const uint8_t *
LiteralScanner::findByte(const uint8_t *p, const uint8_t *end, uint8_t b)
{
    if (p >= end)
        return nullptr;
#if defined(__SSE2__)
    const __m128i needle = _mm_set1_epi8(static_cast<char>(b));
    while (end - p >= 16) {
        const __m128i block = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p));
        const int mask =
            _mm_movemask_epi8(_mm_cmpeq_epi8(block, needle));
        if (mask != 0)
            return p + std::countr_zero(static_cast<unsigned>(mask));
        p += 16;
    }
#else
    // SWAR: a zero byte in w ^ broadcast(b) lights the corresponding
    // high bit of (w - 0x01..01) & ~w & 0x80..80.
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    constexpr uint64_t kHighs = 0x8080808080808080ull;
    const uint64_t bcast = kOnes * b;
    while (static_cast<size_t>(end - p) >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        w ^= bcast;
        if (((w - kOnes) & ~w & kHighs) != 0)
            break; // a match is within these 8 bytes; scalar finds it
        p += 8;
    }
#endif
    for (; p < end; ++p) {
        if (*p == b)
            return p;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// PrefilteredNfa

PrefilteredNfa::PrefilteredNfa(const Automaton &sub,
                               std::vector<ElementId> toGlobal,
                               std::vector<PrefilterPattern> patterns)
    : engine_(sub)
    , toGlobal_(std::move(toGlobal))
    , scanner_([&patterns] {
        std::vector<std::string> lits;
        lits.reserve(patterns.size());
        for (PrefilterPattern &p : patterns)
            lits.push_back(p.literal);
        return lits;
    }())
{
    for (const Element &e : sub.elements()) {
        if (e.kind == ElementKind::kCounter)
            panic("PrefilteredNfa: counter elements in a prefilter "
                  "group");
        if (e.start == StartType::kStartOfData)
            panic("PrefilteredNfa: start-of-data starts in a prefilter "
                  "group (windowed replay would miss anchored matches)");
    }
    if (toGlobal_.size() != sub.size())
        panic("PrefilteredNfa: toGlobal size mismatch");
    radius_.reserve(patterns.size());
    for (const PrefilterPattern &p : patterns) {
        radius_.push_back(p.radius);
        maxRadius_ = std::max(maxRadius_, p.radius);
    }
}

void
PrefilteredNfa::openRun(Exec &x, uint64_t lo) const
{
    engine_.begin(*x.scratch);
    x.active = true;
    x.runStart = lo;
    x.windowEnd = lo;
}

void
PrefilteredNfa::closeRun(Exec &x) const
{
    engine_.end(*x.scratch);
    x.active = false;
}

void
PrefilteredNfa::feedTo(Exec &x, uint64_t target, const uint8_t *bytes,
                       uint64_t bytesBase) const
{
    const uint64_t from = x.fedEnd();
    if (target <= from)
        return;
    // Cycle t of the window's cursor is absolute position runStart + t.
    // No start-of-data seeding (the constructor rejects such groups);
    // all-input states enter through the per-byte index, exactly as
    // they would at these offsets in an unfiltered run.
    const size_t first = x.out.reports.size();
    engine_.feed(*x.scratch, bytes + (from - bytesBase),
                 static_cast<size_t>(target - from), SimOptions(), x.out);
    for (size_t k = first; k < x.out.reports.size(); ++k) {
        Report &r = x.out.reports[k];
        r.offset += x.runStart;
        r.element = toGlobal_[r.element];
    }
    x.stats.windowBytes += target - from;
}

void
PrefilteredNfa::applyHit(Exec &x, uint64_t e, uint32_t pat,
                         uint64_t avail, const uint8_t *bytes,
                         uint64_t bytesBase) const
{
    ++x.stats.candidates;
    const uint64_t lo = e >= maxRadius_ ? e - maxRadius_ : 0;
    const uint64_t hi = e + radius_[pat] + 1; // half-open right edge
    if (x.active && lo > x.windowEnd) {
        // Disjoint windows: drain the old engagement, then start
        // fresh. lo is monotone in hit order (global left reach), so
        // no later hit can need the closed window's state.
        feedTo(x, std::min(x.windowEnd, avail), bytes, bytesBase);
        closeRun(x);
    }
    if (!x.active)
        openRun(x, lo);
    x.windowEnd = std::max(x.windowEnd, hi);
}

PrefilteredNfa::RunResult
PrefilteredNfa::run(const uint8_t *input, size_t len,
                    const RunGuard *guard, EngineScratch &scratch) const
{
    RunResult res;
    res.symbols = len;
    Exec x;
    x.scratch = &scratch;

    std::vector<std::pair<uint64_t, uint32_t>> hits;
    uint64_t done = 0;
    while (done < len) {
        if (guard) {
            Status st = guard->check(done);
            if (!st.ok()) {
                res.symbols = done;
                res.guardStatus = std::move(st);
                break;
            }
        }
        const uint64_t segEnd =
            std::min<uint64_t>(len, done + kGuardCheckIntervalSymbols);
        hits.clear();
        scanner_.scan(input, static_cast<size_t>(segEnd),
                      static_cast<size_t>(done),
                      [&](size_t end, uint32_t pi) {
                          hits.emplace_back(end, pi);
                      });
        std::sort(hits.begin(), hits.end());
        for (const auto &[e, pat] : hits)
            applyHit(x, e, pat, segEnd, input, 0);
        if (x.active)
            feedTo(x, std::min(x.windowEnd, segEnd), input, 0);
        done = segEnd;
    }
    if (x.active)
        closeRun(x);

    x.stats.skippedBytes = res.symbols - x.stats.windowBytes;
    notePrefilter(x.stats.candidates, x.stats.windowBytes,
                  x.stats.skippedBytes);
    res.reports = std::move(x.out.reports);
    res.totalEnabled = x.out.totalEnabled;
    res.stats = x.stats;
    return res;
}

// ---------------------------------------------------------------------
// PrefilteredNfa::Session

PrefilteredNfa::Session::Session(const PrefilteredNfa &pf)
    : pf_(pf)
{
    x_.scratch = &scratch_;
}

void
PrefilteredNfa::Session::feed(const uint8_t *data, size_t len)
{
    buf_.insert(buf_.end(), data, data + len);
    const uint64_t avail = pos_ + len;

    hits_.clear();
    pf_.scanner_.scan(buf_.data(), buf_.size(),
                      static_cast<size_t>(pos_ - bufBase_),
                      [&](size_t end, uint32_t pi) {
                          hits_.emplace_back(bufBase_ + end, pi);
                      });
    std::sort(hits_.begin(), hits_.end());
    for (const auto &[e, pat] : hits_)
        pf_.applyHit(x_, e, pat, avail, buf_.data(), bufBase_);
    if (x_.active)
        pf_.feedTo(x_, std::min(x_.windowEnd, avail), buf_.data(),
                   bufBase_);
    pos_ = avail;
    x_.stats.skippedBytes = pos_ - x_.stats.windowBytes;

    notePrefilter(x_.stats.candidates - flushedCandidates_,
                  x_.stats.windowBytes - flushedWindowBytes_,
                  x_.stats.skippedBytes - flushedSkipped_);
    flushedCandidates_ = x_.stats.candidates;
    flushedWindowBytes_ = x_.stats.windowBytes;
    flushedSkipped_ = x_.stats.skippedBytes;

    // Compact the rolling buffer. Future work only back-reads
    //  - scanner starts >= pos_ + 1 - maxLen (straddling candidates),
    //  - window bytes from >= min(fedEnd, pos_ - maxRadius) (an
    //    engagement extended by a hit at e >= pos_ has lo >= pos_ -
    //    maxRadius, and fedEnd never trails the last fed target),
    // so keeping maxRadius + maxLen bytes behind pos_ is safe.
    const uint64_t keep = pf_.maxRadius_ + pf_.scanner_.maxLen();
    if (buf_.size() > 4 * keep + 4096 && pos_ - bufBase_ > keep) {
        const size_t drop =
            static_cast<size_t>(pos_ - keep - bufBase_);
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(drop));
        bufBase_ += drop;
    }
}

void
PrefilteredNfa::Session::reset()
{
    if (x_.active)
        pf_.closeRun(x_);
    x_.runStart = x_.windowEnd = 0;
    x_.out.reports.clear();
    x_.out.totalEnabled = 0;
    x_.stats = PrefilterStats();
    buf_.clear();
    bufBase_ = 0;
    pos_ = 0;
    hits_.clear();
    flushedCandidates_ = 0;
    flushedWindowBytes_ = 0;
    flushedSkipped_ = 0;
}

size_t
PrefilteredNfa::footprintBytes() const
{
    return sizeof(*this) + engine_.footprintBytes() +
        toGlobal_.capacity() * sizeof(ElementId) +
        radius_.capacity() * sizeof(uint32_t) + scanner_.footprintBytes();
}

} // namespace azoo
