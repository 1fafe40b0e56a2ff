#include "core/automaton.hh"

#include <numeric>

#include "util/logging.hh"

namespace azoo {

ElementId
Automaton::addSte(const CharSet &symbols, StartType start, bool reporting,
                  uint32_t report_code)
{
    Element e;
    e.kind = ElementKind::kSte;
    e.symbols = symbols;
    e.start = start;
    e.reporting = reporting;
    e.reportCode = report_code;
    elements_.push_back(std::move(e));
    return static_cast<ElementId>(elements_.size() - 1);
}

ElementId
Automaton::addCounter(uint32_t target, CounterMode mode, bool reporting,
                      uint32_t report_code)
{
    Element e;
    e.kind = ElementKind::kCounter;
    e.target = target;
    e.mode = mode;
    e.reporting = reporting;
    e.reportCode = report_code;
    elements_.push_back(std::move(e));
    return static_cast<ElementId>(elements_.size() - 1);
}

void
Automaton::addEdge(ElementId from, ElementId to)
{
    elements_[from].out.push_back(to);
}

void
Automaton::addResetEdge(ElementId from, ElementId to)
{
    elements_[from].resetOut.push_back(to);
}

ElementId
Automaton::merge(const Automaton &other)
{
    const auto offset = static_cast<ElementId>(elements_.size());
    elements_.reserve(elements_.size() + other.elements_.size());
    for (const Element &e : other.elements_) {
        Element copy = e;
        for (auto &t : copy.out)
            t += offset;
        for (auto &t : copy.resetOut)
            t += offset;
        elements_.push_back(std::move(copy));
    }
    return offset;
}

uint64_t
Automaton::edgeCount() const
{
    uint64_t n = 0;
    for (const auto &e : elements_)
        n += e.out.size();
    return n;
}

uint64_t
Automaton::resetEdgeCount() const
{
    uint64_t n = 0;
    for (const auto &e : elements_)
        n += e.resetOut.size();
    return n;
}

std::vector<ElementId>
Automaton::startStates() const
{
    std::vector<ElementId> out;
    for (ElementId i = 0; i < elements_.size(); ++i) {
        if (elements_[i].start != StartType::kNone)
            out.push_back(i);
    }
    return out;
}

std::vector<ElementId>
Automaton::reportingElements() const
{
    std::vector<ElementId> out;
    for (ElementId i = 0; i < elements_.size(); ++i) {
        if (elements_[i].reporting)
            out.push_back(i);
    }
    return out;
}

uint64_t
Automaton::countKind(ElementKind kind) const
{
    uint64_t n = 0;
    for (const auto &e : elements_)
        n += e.kind == kind;
    return n;
}

std::vector<uint32_t>
Automaton::inDegrees() const
{
    std::vector<uint32_t> in(elements_.size(), 0);
    for (const auto &e : elements_)
        for (auto t : e.out)
            ++in[t];
    return in;
}

std::vector<std::vector<ElementId>>
Automaton::reverseAdjacency() const
{
    std::vector<std::vector<ElementId>> rev(elements_.size());
    for (ElementId i = 0; i < elements_.size(); ++i)
        for (auto t : elements_[i].out)
            rev[t].push_back(i);
    return rev;
}

std::vector<uint32_t>
Automaton::connectedComponents(uint32_t &count) const
{
    // Union-find over activation and reset edges (reset edges keep a
    // counter in the same subgraph as its resetting filter).
    std::vector<uint32_t> parent(elements_.size());
    std::iota(parent.begin(), parent.end(), 0);

    auto find = [&](uint32_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto unite = [&](uint32_t a, uint32_t b) {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[b] = a;
    };

    for (ElementId i = 0; i < elements_.size(); ++i) {
        for (auto t : elements_[i].out)
            unite(i, t);
        for (auto t : elements_[i].resetOut)
            unite(i, t);
    }

    std::vector<uint32_t> label(elements_.size());
    std::vector<uint32_t> remap(elements_.size(), ~uint32_t(0));
    uint32_t next = 0;
    for (ElementId i = 0; i < elements_.size(); ++i) {
        uint32_t root = find(i);
        if (remap[root] == ~uint32_t(0))
            remap[root] = next++;
        label[i] = remap[root];
    }
    count = next;
    return label;
}

Status
Automaton::check() const
{
    auto bad = [this](const std::string &what) {
        return Status(ErrorCode::kParseError,
                      cat("automaton '", name_, "': ", what));
    };
    for (ElementId i = 0; i < elements_.size(); ++i) {
        const Element &e = elements_[i];
        for (auto t : e.out) {
            if (t >= elements_.size())
                return bad(cat("element ", i,
                               " has out-edge to invalid id ", t));
        }
        for (auto t : e.resetOut) {
            if (t >= elements_.size())
                return bad(cat("element ", i,
                               " has reset edge to invalid id ", t));
            if (elements_[t].kind != ElementKind::kCounter)
                return bad(cat("reset edge ", i, " -> ", t,
                               " targets a non-counter"));
        }
        if (e.kind == ElementKind::kCounter) {
            if (e.start != StartType::kNone)
                return bad(cat("counter ", i, " has a start type"));
            if (!e.symbols.empty())
                return bad(cat("counter ", i, " carries symbols"));
            if (e.target == 0)
                return bad(cat("counter ", i, " has zero target"));
        }
    }
    return Status();
}

void
Automaton::validate() const
{
    Status st = check();
    if (!st.ok())
        fatal(st.message());
}

} // namespace azoo
