/**
 * @file
 * The homogeneous finite-automaton graph that every AutomataZoo
 * benchmark is expressed in.
 *
 * Following the ANML/MNRL convention used by VASim and the Micron AP,
 * match labels (character sets) live on states (STEs), not on edges.
 * An STE is *enabled* in a cycle if any predecessor *matched* in the
 * previous cycle, or if it is a start state. An enabled STE matches
 * when the current input symbol is in its character set; matching
 * reports (if the STE is a reporting state) and enables successors.
 *
 * A second element kind models Micron AP counter elements, which the
 * Seq Match "wC" benchmark variants require: a counter increments once
 * per cycle in which any count-enable predecessor matched, and fires
 * when its value reaches the target.
 */

#ifndef AZOO_CORE_AUTOMATON_HH
#define AZOO_CORE_AUTOMATON_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/charset.hh"
#include "util/status.hh"

namespace azoo {

/** How a state may self-enable without a matching predecessor. */
enum class StartType : uint8_t {
    kNone,        ///< only enabled by predecessors
    kStartOfData, ///< enabled for the first input symbol only
    kAllInput,    ///< enabled for every input symbol
};

/** Element kinds in the element table. */
enum class ElementKind : uint8_t {
    kSte,     ///< state transition element (character-set matcher)
    kCounter, ///< AP-style threshold counter
};

/** What a counter does when its value reaches the target. */
enum class CounterMode : uint8_t {
    kLatch,    ///< assert output every cycle once reached
    kPulse,    ///< assert output only on the reaching cycle
    kRollover, ///< pulse, then reset the count to zero
};

/** Element id type; indices into Automaton's element table. */
using ElementId = uint32_t;

/** Sentinel for "no element". */
constexpr ElementId kNoElement = ~ElementId(0);

/**
 * One element (STE or counter) of an automaton.
 *
 * Kept as a single tagged struct rather than a class hierarchy: the
 * simulation kernels iterate millions of these and benefit from a flat
 * table, and the benchmark generators freely mix the two kinds.
 */
struct Element {
    ElementKind kind = ElementKind::kSte;
    StartType start = StartType::kNone;
    bool reporting = false;
    /** User-meaningful report stream id (e.g. rule number). */
    uint32_t reportCode = 0;
    /** Match label; meaningful for STEs only. */
    CharSet symbols;
    /** Counter threshold; meaningful for counters only. */
    uint32_t target = 0;
    CounterMode mode = CounterMode::kLatch;
    /** Activation successors (count-enable when target is a counter). */
    std::vector<ElementId> out;
    /** Reset successors (must be counters). */
    std::vector<ElementId> resetOut;
};

/**
 * A homogeneous automaton: a flat table of elements plus metadata.
 *
 * Invariants (checked by validate()):
 *  - every edge endpoint is a valid element id;
 *  - counters have no start type and carry no symbols;
 *  - resetOut edges target counters only.
 */
class Automaton
{
  public:
    Automaton() = default;
    explicit Automaton(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Append an STE and return its id. */
    ElementId addSte(const CharSet &symbols,
                     StartType start = StartType::kNone,
                     bool reporting = false, uint32_t report_code = 0);

    /** Append a counter element and return its id. */
    ElementId addCounter(uint32_t target,
                         CounterMode mode = CounterMode::kLatch,
                         bool reporting = false, uint32_t report_code = 0);

    /** Add an activation edge from -> to. */
    void addEdge(ElementId from, ElementId to);

    /** Add a reset edge from -> to (to must be a counter). */
    void addResetEdge(ElementId from, ElementId to);

    /** Absorb all elements of another automaton (disjoint union).
     *  Returns the id offset applied to the other's element ids. */
    ElementId merge(const Automaton &other);

    size_t size() const { return elements_.size(); }
    bool empty() const { return elements_.empty(); }

    Element &element(ElementId id) { return elements_[id]; }
    const Element &element(ElementId id) const { return elements_[id]; }

    const std::vector<Element> &elements() const { return elements_; }
    std::vector<Element> &elements() { return elements_; }

    /** Total directed edge count (activation edges only, to match the
     *  paper's "Edges" column; reset edges are counted separately). */
    uint64_t edgeCount() const;

    /** Number of reset edges. */
    uint64_t resetEdgeCount() const;

    /** Ids of all start states (either start type). */
    std::vector<ElementId> startStates() const;

    /** Ids of all reporting elements. */
    std::vector<ElementId> reportingElements() const;

    /** Count of elements of a given kind. */
    uint64_t countKind(ElementKind kind) const;

    /** In-degree per element (activation edges). */
    std::vector<uint32_t> inDegrees() const;

    /** Reverse adjacency (activation edges). */
    std::vector<std::vector<ElementId>> reverseAdjacency() const;

    /**
     * Connected components of the undirected activation graph.
     * Returns a component id per element; component count via the
     * out-param.
     */
    std::vector<uint32_t> connectedComponents(uint32_t &count) const;

    /** Check structural invariants; non-OK Status (kParseError) on
     *  the first violation. Used by the untrusted-input loaders. */
    Status check() const;

    /** Check structural invariants; fatal() on violation. For
     *  generator/transform code, where a violation is a bug. */
    void validate() const;

  private:
    std::string name_;
    std::vector<Element> elements_;
};

/**
 * The sub-automaton of @p a induced by @p members, named @p name.
 * @p members must be ascending original ids and closed under
 * activation and reset edges (whole connected components are).
 * Element i of the result is a copy of a.element(members[i]), so
 * @p members doubles as the local-to-global id map, and original-id
 * order keeps report ids and simulation results reproducible.
 * panic()s on an edge leaving the member set.
 */
Automaton subAutomaton(const Automaton &a,
                       std::span<const ElementId> members,
                       std::string name);

} // namespace azoo

#endif // AZOO_CORE_AUTOMATON_HH
