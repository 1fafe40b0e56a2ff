#include "engine/prefilter.hh"

#include <bit>

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

PrefilteredNfa::PrefilteredNfa(const Automaton &a,
                               std::vector<ElementId> members,
                               std::vector<PrefilterPattern> patterns)
    : engine_(a, members)
    , toGlobal_(std::move(members))
    , scanner_([&patterns] {
        std::vector<std::string> lits;
        lits.reserve(patterns.size());
        for (PrefilterPattern &p : patterns)
            lits.push_back(p.literal);
        return lits;
    }())
{
    if (toGlobal_.empty())
        panic("PrefilteredNfa: no members");
    for (ElementId id : toGlobal_) {
        const Element &e = a.element(id);
        if (e.kind == ElementKind::kCounter)
            panic("PrefilteredNfa: counter elements in a prefilter "
                  "group");
        if (e.start == StartType::kStartOfData)
            panic("PrefilteredNfa: start-of-data starts in a prefilter "
                  "group (windowed replay would miss anchored matches)");
    }
    radius_.reserve(patterns.size());
    for (const PrefilterPattern &p : patterns) {
        radius_.push_back(p.radius);
        maxRadius_ = std::max(maxRadius_, p.radius);
    }
}

// ---------------------------------------------------------------------
// PrefilteredNfa::Session

PrefilteredNfa::Session::Session(const PrefilteredNfa &pf) : pf_(pf) {}

void
PrefilteredNfa::Session::openRun(uint64_t lo)
{
    pf_.engine_.begin(scratch_);
    active_ = true;
    runStart_ = lo;
    windowEnd_ = lo;
}

void
PrefilteredNfa::Session::closeRun()
{
    pf_.engine_.end(scratch_);
    active_ = false;
}

void
PrefilteredNfa::Session::feedTo(uint64_t target, const uint8_t *bytes,
                                uint64_t bytesBase)
{
    const uint64_t from = fedEnd();
    if (target <= from)
        return;
    // Cycle t of the window's cursor is absolute position runStart_ +
    // t. No start-of-data seeding (the constructor rejects such
    // groups); all-input states enter through the per-byte index,
    // exactly as they would at these offsets in an unfiltered run.
    const size_t first = out_.reports.size();
    pf_.engine_.feed(scratch_, bytes + (from - bytesBase),
                     static_cast<size_t>(target - from), SimOptions(),
                     out_);
    for (size_t k = first; k < out_.reports.size(); ++k) {
        Report &r = out_.reports[k];
        r.offset += runStart_;
        r.element = pf_.toGlobal_[r.element];
    }
    stats_.windowBytes += target - from;
}

void
PrefilteredNfa::Session::applyHit(uint64_t e, uint32_t pat,
                                  uint64_t avail, const uint8_t *bytes,
                                  uint64_t bytesBase)
{
    ++stats_.candidates;
    const uint64_t lo = e >= pf_.maxRadius_ ? e - pf_.maxRadius_ : 0;
    const uint64_t hi = e + pf_.radius_[pat] + 1; // half-open right edge
    if (active_ && lo > windowEnd_) {
        // Disjoint windows: drain the old engagement, then start
        // fresh. lo is monotone in hit order (global left reach), so
        // no later hit can need the closed window's state.
        feedTo(std::min(windowEnd_, avail), bytes, bytesBase);
        closeRun();
    }
    if (!active_)
        openRun(lo);
    windowEnd_ = std::max(windowEnd_, hi);
}

void
PrefilteredNfa::Session::feed(const uint8_t *data, size_t len)
{
    for (; len > kPieceBytes; data += kPieceBytes, len -= kPieceBytes)
        feedPiece(data, kPieceBytes);
    feedPiece(data, len);
}

void
PrefilteredNfa::Session::feedPiece(const uint8_t *data, size_t len)
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
        applyHit(e, pat, avail, buf_.data(), bufBase_);
    if (active_)
        feedTo(std::min(windowEnd_, avail), buf_.data(), bufBase_);
    pos_ = avail;
    stats_.skippedBytes = pos_ - stats_.windowBytes;

    // Compact the rolling buffer. Future work only back-reads
    //  - scanner starts >= pos_ + 1 - maxLen (straddling candidates),
    //  - window bytes from >= min(fedEnd, pos_ - maxRadius) (an
    //    engagement extended by a hit at e >= pos_ has lo >= pos_ -
    //    maxRadius, and fedEnd never trails the last fed target),
    // so keeping maxRadius + maxLen bytes behind pos_ is safe.
    const uint64_t keep = pf_.keepBytes();
    if (buf_.size() > bufferBound(keep) && pos_ - bufBase_ > keep) {
        const size_t drop =
            static_cast<size_t>(pos_ - keep - bufBase_);
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(drop));
        bufBase_ += drop;
    }
}

void
PrefilteredNfa::Session::takeReports(uint64_t offset,
                                     std::vector<Report> &out)
{
    std::vector<Report> &reps = out_.reports;
    const auto end = std::partition_point(
        reps.begin(), reps.end(),
        [offset](const Report &r) { return r.offset < offset; });
    out.insert(out.end(), reps.begin(), end);
    reps.erase(reps.begin(), end);
}

void
PrefilteredNfa::Session::noteStats()
{
    notePrefilter(stats_.candidates - flushedCandidates_,
                  stats_.windowBytes - flushedWindowBytes_,
                  stats_.skippedBytes - flushedSkipped_);
    flushedCandidates_ = stats_.candidates;
    flushedWindowBytes_ = stats_.windowBytes;
    flushedSkipped_ = stats_.skippedBytes;
}

void
PrefilteredNfa::Session::reset()
{
    if (active_)
        closeRun();
    runStart_ = windowEnd_ = 0;
    out_.reports.clear();
    out_.totalEnabled = 0;
    stats_ = PrefilterStats();
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
