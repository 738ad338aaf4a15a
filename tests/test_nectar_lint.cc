/**
 * @file
 * Tests for the nectar-lint static-analysis pass.
 *
 * Three layers: the corpus tests lint the one-rule-per-file fixtures
 * in tests/lint_corpus/ and assert the exact (rule, line) findings —
 * if any of D1–D8 or A1 stops firing, the corresponding test fails.
 * The inline tests feed lintSource() small snippets to pin down the
 * edge cases (literals in comments/strings, annotation coverage, the
 * packet-path filter).  The real-tree tests run every rule over src/
 * and require it clean.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph.hh"
#include "lint.hh"

using nectar::lint::Finding;
using nectar::lint::lintFile;
using nectar::lint::lintSource;
using nectar::lint::Options;
namespace fs = std::filesystem;

namespace {

std::vector<std::pair<std::string, int>>
ruleLines(const std::vector<Finding> &findings)
{
    std::vector<std::pair<std::string, int>> out;
    for (const auto &f : findings)
        out.emplace_back(f.rule, f.line);
    return out;
}

std::vector<std::pair<std::string, int>>
lintCorpus(const std::string &relative)
{
    std::string path =
        std::string(NECTAR_LINT_CORPUS_DIR) + "/" + relative;
    return ruleLines(lintFile(path));
}

using Expected = std::vector<std::pair<std::string, int>>;

} // namespace

// --------------------------------------------------------------------
// Corpus: each fixture violates exactly one rule, and the findings
// must match rule ids and line numbers exactly.
// --------------------------------------------------------------------

TEST(LintCorpus, D1WallClockSourcesAllFire)
{
    EXPECT_EQ(lintCorpus("d1_wallclock.cc"),
              (Expected{{"D1", 10}, {"D1", 11}, {"D1", 12}, {"D1", 13}}));
}

TEST(LintCorpus, D2UnorderedIterationFires)
{
    EXPECT_EQ(lintCorpus("d2_unordered_iter.cc"),
              (Expected{{"D2", 11}, {"D2", 13}}));
}

TEST(LintCorpus, D3PacketPathCopiesFire)
{
    // The fixture lives under lint_corpus/hub/, so the packet-path
    // directory filter matches and all three copy forms fire.
    EXPECT_EQ(lintCorpus("hub/d3_copies.cc"),
              (Expected{{"D3", 11}, {"D3", 12}, {"D3", 13}}));
}

TEST(LintCorpus, D4ReferenceCapturesFire)
{
    // Findings anchor at the schedule-call line, not the lambda line.
    EXPECT_EQ(lintCorpus("d4_ref_capture.cc"),
              (Expected{{"D4", 9}, {"D4", 11}}));
}

TEST(LintCorpus, D4SpawnReferenceCapturesFire)
{
    // spawn() sites obey the same capture rule as schedule(); the
    // bare-int task argument on the last line must not trip D5.
    EXPECT_EQ(lintCorpus("d4_spawn_capture.cc"),
              (Expected{{"D4", 13}, {"D4", 14}}));
}

TEST(LintCorpus, D5BareTickLiteralsFire)
{
    // Digit separators, hex and suffixed literals all count as bare.
    EXPECT_EQ(lintCorpus("d5_bare_ticks.cc"),
              (Expected{{"D5", 8}, {"D5", 9}, {"D5", 10}}));
}

TEST(LintCorpus, A1BadAnnotationsFire)
{
    EXPECT_EQ(lintCorpus("a1_bad_annotation.cc"),
              (Expected{{"A1", 2}, {"A1", 3}}));
}

TEST(LintCorpus, CleanCounterExamplesStaySilent)
{
    EXPECT_EQ(lintCorpus("clean.cc"), Expected{});
}

TEST(LintCorpus, JustifiedAnnotationsSuppress)
{
    EXPECT_EQ(lintCorpus("annotated.cc"), Expected{});
}

// --------------------------------------------------------------------
// Inline edge cases.
// --------------------------------------------------------------------

TEST(LintSource, LiteralsInCommentsAndStringsAreIgnored)
{
    std::string src = "// rand() memcpy schedule(5, x)\n"
                      "const char *s = \"std::random_device\";\n"
                      "const char *r = R\"(system_clock)\";\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, VariableDelayAndUnitExpressionsPassD5)
{
    std::string src = "void f(EQ &eq, Tick d) {\n"
                      "    eq.scheduleIn(d, [] {});\n"
                      "    eq.scheduleIn(3 * ticks::us, [] {});\n"
                      "    eq.schedule(ticks::immediate, [] {});\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, IndexingIsNotALambdaIntro)
{
    // arr[&x - p] after an identifier is indexing, not a capture.
    std::string src = "void f(EQ &eq, Tick d, int *arr, int *p) {\n"
                      "    int x = 0;\n"
                      "    eq.scheduleIn(d, cb[&x - p]);\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, MultiLineScheduleAnchorsAtCallLine)
{
    std::string src = "void f(EQ &eq, Tick d) {\n"
                      "    int n = 0;\n"
                      "    eq.scheduleIn(\n"
                      "        d,\n"
                      "        [&n] { ++n; });\n"
                      "}\n";
    auto found = ruleLines(lintSource("x.cc", src));
    EXPECT_EQ(found, (Expected{{"D4", 3}}));
}

TEST(LintSource, AnnotationCoversNextCodeLine)
{
    std::string src = "void f(EQ &eq, Tick d) {\n"
                      "    int n = 0;\n"
                      "    // nectar-lint: capture-ok queue drained\n"
                      "    // before n goes out of scope\n"
                      "    eq.scheduleIn(\n"
                      "        d, [&n] { ++n; });\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
}

TEST(LintSource, PacketPathFilterGatesD3)
{
    std::string src = "std::vector<std::uint8_t> held(64, 0);\n";
    EXPECT_TRUE(lintSource("src/workload/w.cc", src).empty());
    auto found = ruleLines(lintSource("src/transport/t.cc", src));
    EXPECT_EQ(found, (Expected{{"D3", 1}}));
}

TEST(LintSource, NonOwningVectorUsesPassD3)
{
    std::string src =
        "void g(const std::vector<std::uint8_t> &in,\n"
        "       std::vector<std::uint8_t> *out);\n"
        "std::map<int, std::vector<std::uint8_t>> table;\n";
    EXPECT_TRUE(lintSource("src/transport/t.cc", src).empty());
}

TEST(LintSource, CustomPacketPathOption)
{
    Options opts;
    opts.packetPathDirs = {"/fastpath/"};
    std::string src = "std::memcpy(a, b, n);\n";
    EXPECT_TRUE(lintSource("src/hub/h.cc", src, opts).empty());
    EXPECT_EQ(ruleLines(lintSource("src/fastpath/h.cc", src, opts)),
              (Expected{{"D3", 1}}));
}

TEST(LintSource, FileWideAnnotationDoesNotCrossRules)
{
    std::string src = "// nectar-lint-file: raw-ticks-ok demo ticks\n"
                      "void f(EQ &eq) {\n"
                      "    int n = 0;\n"
                      "    eq.schedule(5, [&n] { ++n; });\n"
                      "}\n";
    // D5 is waived file-wide; the D4 capture still fires.
    EXPECT_EQ(ruleLines(lintSource("x.cc", src)),
              (Expected{{"D4", 4}}));
}

TEST(LintSource, A1IsNeverSuppressed)
{
    std::string src = "// nectar-lint-file: wallclock-ok everything\n"
                      "// nectar-lint: bogus-tag whatever\n"
                      "int x = 0;\n";
    EXPECT_EQ(ruleLines(lintSource("x.cc", src)),
              (Expected{{"A1", 2}}));
}

TEST(LintSource, RuleDescriptionsExist)
{
    for (const char *rule : {"D1", "D2", "D3", "D4", "D5", "D6",
                             "D7", "D8", "A1"}) {
        ASSERT_NE(nectar::lint::ruleDescription(rule), nullptr);
        EXPECT_NE(std::string(nectar::lint::ruleDescription(rule)), "");
    }
}

// --------------------------------------------------------------------
// D1 extension: the time()/localtime() family and kernel entropy.
// --------------------------------------------------------------------

TEST(LintCorpus, D1TimeFamilyFires)
{
    EXPECT_EQ(lintCorpus("d1_time_family.cc"),
              (Expected{{"D1", 10},
                        {"D1", 11},
                        {"D1", 12},
                        {"D1", 13},
                        {"D1", 15},
                        {"D1", 16},
                        {"D1", 17}}));
}

TEST(LintSource, TimeOfAVariableIsNotWallClock)
{
    // time(&t) is wall clock; runtime(x) and a member named time are
    // not calls into the libc time family.
    std::string src = "void f(T &sim, long x) {\n"
                      "    long a = sim.runtime(x);\n"
                      "    long b = sim.time;\n"
                      "    (void)a; (void)b;\n"
                      "}\n";
    EXPECT_TRUE(lintSource("x.cc", src).empty());
    EXPECT_EQ(ruleLines(lintSource(
                  "x.cc", "long g() { long t; return time(&t); }\n")),
              (Expected{{"D1", 1}}));
}

// --------------------------------------------------------------------
// D7 — mutable global / static state.
// --------------------------------------------------------------------

TEST(LintCorpus, D7GlobalStateFires)
{
    // Namespace-scope inline/static/extern variables (including the
    // function-pointer hook), a static data member, and the two
    // mutable function-local statics; const/constexpr/thread_local
    // and the annotated declaration stay silent.
    EXPECT_EQ(lintCorpus("src/d7_global_state.cc"),
              (Expected{{"D7", 8},
                        {"D7", 9},
                        {"D7", 10},
                        {"D7", 11},
                        {"D7", 22},
                        {"D7", 29},
                        {"D7", 38}}));
}

TEST(LintSource, D7AppliesOnlyUnderSimulationDirs)
{
    std::string src = "namespace x {\nstatic int hits = 0;\n}\n";
    EXPECT_EQ(ruleLines(lintSource("src/hub/h.cc", src)),
              (Expected{{"D7", 2}}));
    EXPECT_TRUE(lintSource("tools/t.cc", src).empty());
    EXPECT_TRUE(lintSource("tests/helpers/h.hh", src).empty());
}

TEST(LintSource, D7ConstAndThreadLocalPass)
{
    std::string src = "static const int a = 1;\n"
                      "static constexpr int b = 2;\n"
                      "static thread_local int c = 3;\n"
                      "inline void f() { static int d = 4; ++d; }\n";
    EXPECT_EQ(ruleLines(lintSource("src/sim/s.hh", src)),
              (Expected{{"D7", 4}}));
}

TEST(LintSource, D7StaticFunctionsAndClassesPass)
{
    std::string src = "static int helper(int x) { return x + 1; }\n"
                      "static inline int twice(int x)\n"
                      "{\n"
                      "    return helper(helper(x));\n"
                      "}\n";
    EXPECT_TRUE(lintSource("src/sim/s.cc", src).empty());
}

// --------------------------------------------------------------------
// The access-graph pass: D6/D8 corpus and edge classification.
// --------------------------------------------------------------------

namespace {

nectar::lint::GraphResult
analyzeGraphCorpus()
{
    std::vector<nectar::lint::SourceFile> files;
    for (const char *rel : {
             "graph/src/sim/component.hh",
             "graph/src/hub/widget.hh",
             "graph/src/phys/wire.hh",
             "graph/src/datalink/pump.hh",
             "graph/src/cab/board.cc",
         }) {
        std::string path =
            std::string(NECTAR_LINT_CORPUS_DIR) + "/" + rel;
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        files.push_back({path, ss.str()});
    }
    return nectar::lint::analyzeGraph(files);
}

/** The corpus edges from Board, as "to/kind/member" strings. */
std::vector<std::string>
boardEdges(const nectar::lint::GraphResult &g)
{
    std::vector<std::string> out;
    for (const auto &e : g.edges)
        if (e.from == "Board")
            out.push_back(e.to + "/" + e.kind + "/" + e.member +
                          (e.annotated ? "/annotated" : ""));
    return out;
}

} // namespace

TEST(LintGraph, CorpusComponentsRolesAndInterfaces)
{
    auto g = analyzeGraphCorpus();
    ASSERT_EQ(g.components.size(), 5u);
    EXPECT_EQ(g.components.at("Component").role, "engine");
    EXPECT_EQ(g.components.at("Widget").role, "hub");
    EXPECT_EQ(g.components.at("FiberLink").role, "wire");
    EXPECT_EQ(g.components.at("Pump").role, "site");
    EXPECT_EQ(g.components.at("Board").role, "site");
    // The aggregate behind the accessor is internals, not a node.
    EXPECT_EQ(g.components.count("Gauge"), 0u);
}

TEST(LintGraph, CorpusFindingsExact)
{
    auto g = analyzeGraphCorpus();
    std::vector<std::pair<std::string, int>> got;
    for (const auto &f : g.findings)
        got.emplace_back(f.rule, f.line);
    EXPECT_EQ(got, (Expected{
                       {"D6", 34}, {"D6", 37}, {"D6", 38}, {"D8", 48}}));
}

TEST(LintGraph, CorpusEdgeClassification)
{
    auto g = analyzeGraphCorpus();
    auto edges = boardEdges(g);
    auto has = [&](const std::string &s) {
        return std::count(edges.begin(), edges.end(), s);
    };
    // One of each sanctioned kind...
    EXPECT_EQ(has("Widget/read/level"), 1);
    EXPECT_EQ(has("FiberLink/mediated/send"), 1);
    EXPECT_EQ(has("Pump/co-located/run"), 1);
    EXPECT_EQ(has("Widget/mediated/poke/annotated"), 1);
    EXPECT_EQ(has("Widget/foreign-ref/gauge/annotated"), 1);
    // ... and the violations, kept in the edge list as well.
    EXPECT_EQ(has("Widget/direct-mutation/poke"), 1);
    EXPECT_EQ(has("Widget/direct-mutation/gauge"), 1);
    EXPECT_EQ(has("FiberLink/direct-mutation/jiggle"), 1);
    EXPECT_EQ(has("Widget/foreign-ref/gauge"), 1);
}

TEST(LintGraph, MediatedAllowlistIsConfigurable)
{
    std::vector<nectar::lint::SourceFile> files = {
        {"src/sim/component.hh",
         "namespace s { class Component { public: int x = 0; }; }\n"},
        {"src/hub/a.hh",
         "class A : public s::Component {\n"
         "  public:\n"
         "    void hit() { ++n; }\n"
         "  private:\n"
         "    int n = 0;\n"
         "};\n"},
        {"src/cab/b.cc",
         "class B : public s::Component {\n"
         "  public:\n"
         "    void go() { other.hit(); }\n"
         "  private:\n"
         "    A &other;\n"
         "};\n"},
    };
    nectar::lint::GraphOptions opts;
    auto g1 = nectar::lint::analyzeGraph(files, opts);
    ASSERT_EQ(g1.findings.size(), 1u);
    EXPECT_EQ(g1.findings[0].rule, "D6");

    opts.mediatedAllowlist.push_back({"A", "hit"});
    auto g2 = nectar::lint::analyzeGraph(files, opts);
    EXPECT_TRUE(g2.findings.empty());
}

// --------------------------------------------------------------------
// The access-graph pass over the real tree.  The shape test guards
// against a parser regression that indexes nothing and so passes the
// findings test vacuously.
// --------------------------------------------------------------------

namespace {

std::vector<nectar::lint::SourceFile>
readTree()
{
    std::vector<nectar::lint::SourceFile> files;
    for (const auto &e :
         fs::recursive_directory_iterator(NECTAR_SRC_DIR)) {
        if (!e.is_regular_file())
            continue;
        std::string ext = e.path().extension().string();
        if (ext != ".cc" && ext != ".hh")
            continue;
        std::ifstream in(e.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        files.push_back({e.path().string(), ss.str()});
    }
    EXPECT_GT(files.size(), 50u);
    return files;
}

} // namespace

TEST(LintGraph, RealTreeHasNoUnannotatedGraphFindings)
{
    auto g = nectar::lint::analyzeGraph(readTree());
    for (const auto &f : g.findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                      << "] " << f.message;
    // The per-file rules (including D7 global state) must be clean
    // too: nothing under src/ may escape the component graph.
    for (const auto &src : readTree())
        for (const auto &f :
             nectar::lint::lintSource(src.path, src.text))
            ADD_FAILURE() << f.file << ":" << f.line << " ["
                          << f.rule << "] " << f.message;
}

TEST(LintGraph, RealTreeGraphShapeIsSane)
{
    auto g = nectar::lint::analyzeGraph(readTree());
    // The Component closure covers the core of the simulator.
    for (const char *c : {"Cab", "Kernel", "Datalink", "Transport",
                          "Hub", "IoPort", "FiberLink", "FiberSink"})
        EXPECT_EQ(g.components.count(c), 1u) << c;
    EXPECT_TRUE(g.components.at("FiberSink").interface);
    EXPECT_EQ(g.components.at("Hub").role, "hub");
    EXPECT_EQ(g.components.at("FiberLink").role, "wire");
    EXPECT_EQ(g.components.at("Transport").role, "site");

    // Every edge is classified, and every wire-crossing mutation is
    // mediated: the fiber is the only interface between layers.
    ASSERT_GT(g.edges.size(), 50u);
    for (const auto &e : g.edges) {
        EXPECT_NE(e.kind, "direct-mutation")
            << e.from << " -> " << e.to << "::" << e.member << " at "
            << e.file << ":" << e.line;
        if (e.mutation && g.components.at(e.to).role == "wire") {
            EXPECT_EQ(e.kind, "mediated")
                << e.from << " -> " << e.to << "::" << e.member;
        }
    }
}
