/**
 * @file
 * nectar-lint: domain-rule static analysis for the nectar simulator.
 *
 * The simulator's trustworthiness rests on invariants that ordinary
 * C++ tooling cannot see: seeded determinism, the zero-copy
 * Buffer/PacketView ownership discipline on the packet path, and the
 * lifetime rules of deferred events.  nectar-lint is a small lexical
 * analyzer (comment/string-aware token scanning, not a full parser)
 * that enforces them mechanically:
 *
 *  - D1  no wall-clock time or unseeded randomness
 *        (std::random_device, rand()/srand(), system_clock, ...);
 *        all stochastic behaviour must draw from sim::Random.
 *  - D2  no iteration over std::unordered_{map,set} in simulation
 *        code: hash order is unspecified, so iterating one to
 *        schedule events or mutate sim state diverges across runs.
 *  - D3  no raw payload copies (memcpy, new[], owning
 *        std::vector<uint8_t>) inside the packet path
 *        (phys/hub/datalink/transport/cab); payload bytes flow
 *        through sim::Buffer/PacketView and are counted by
 *        sim::copyStats().
 *  - D4  no by-reference lambda captures passed into schedule():
 *        a deferred event may outlive the captured frame.
 *  - D5  no bare integer time literals at schedule sites; use named
 *        sim::ticks constants (e.g. 5 * ticks::us) so units are
 *        explicit.
 *  - D7  no mutable global/namespace-scope static state in
 *        simulation code: state that no component owns outlives a
 *        run, so the next run in the same process (a fuzz campaign,
 *        a sweep, a future --jobs pool) starts from what the last
 *        one left and stops being a function of its seed.
 *
 * Two further layer rules, D6 (direct cross-layer state mutation off
 * the mediated-call allowlist) and D8 (foreign references to another
 * component's internals stored in fields), ride on the whole-tree
 * component access graph; see graph.hh.
 *
 * Violations are suppressed with an annotation carrying a
 * justification (rule A1 rejects annotations without one):
 *
 *     riskyCall();  // nectar-lint: copy-ok CAB memory model, not payload
 *
 * A line annotation covers its own line, and the following line when
 * the annotation stands alone on its line.  A file-wide waiver uses
 * "nectar-lint-file:" with the same tag grammar:
 *
 *     // nectar-lint-file: capture-ok test frames outlive eq.run()
 *
 * Tags: wallclock-ok (D1), ordered-ok (D2), copy-ok (D3),
 * capture-ok (D4), raw-ticks-ok (D5), mediated-ok (D6),
 * global-ok (D7), foreign-ref-ok (D8).
 */

#pragma once

#include <string>
#include <vector>

namespace nectar::lint {

/** One rule violation (or A1 annotation error). */
struct Finding
{
    std::string rule;    ///< "D1".."D8", or "A1" (bad annotation).
    std::string file;    ///< Path as passed to the linter.
    int line = 0;        ///< 1-based line number.
    std::string message; ///< Human-readable explanation.
};

/** Linter configuration. */
struct Options
{
    /**
     * Path substrings marking the zero-copy packet path; D3 applies
     * only to files whose path contains one of these.
     */
    std::vector<std::string> packetPathDirs = {
        "/phys/", "/hub/", "/datalink/", "/transport/", "/cab/",
    };

    /**
     * Path substrings marking simulation code; D7 applies only to
     * files whose path contains one of these (tools and tests may
     * keep process-wide state).
     */
    std::vector<std::string> globalStateDirs = {"src/"};
};

/** One-line description of a rule id ("D1".."D8", "A1"). */
const char *ruleDescription(const std::string &rule);

/**
 * Lint @p text as the contents of @p path.
 *
 * @return Findings sorted by line, deduplicated by (rule, line).
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text,
                                const Options &opts = {});

/** Read @p path and lint it.  @throws std::runtime_error on I/O error. */
std::vector<Finding> lintFile(const std::string &path,
                              const Options &opts = {});

} // namespace nectar::lint
