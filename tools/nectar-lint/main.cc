/**
 * @file
 * nectar-lint command-line driver.
 *
 * Usage: nectar-lint [options] <file-or-dir>...
 *
 * Directories are scanned recursively for C++ sources; build trees,
 * dot-directories and the lint-corpus fixtures (which violate rules
 * on purpose) are skipped.  Files named explicitly are always
 * linted, corpus or not — that is how the corpus tests drive the
 * binary.
 *
 * When any collected file lies under a src/ directory, the
 * whole-tree component access-graph pass (graph.hh) also runs over
 * those files and reports its D6/D8 layer findings with the rest.
 *
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hh"
#include "lint.hh"

namespace fs = std::filesystem;
using nectar::lint::Finding;
using nectar::lint::Options;

namespace {

bool
isSourceFile(const fs::path &p)
{
    static const std::vector<std::string> exts = {
        ".cc", ".hh", ".cpp", ".hpp", ".h", ".cxx",
    };
    return std::find(exts.begin(), exts.end(),
                     p.extension().string()) != exts.end();
}

bool
skippedDir(const fs::path &p)
{
    std::string name = p.filename().string();
    return name.empty() || name.front() == '.' ||
           name.rfind("build", 0) == 0 || name == "lint_corpus" ||
           name == "CMakeFiles" || name == "Testing";
}

void
collect(const fs::path &root, std::vector<std::string> &files)
{
    auto it = fs::recursive_directory_iterator(
        root, fs::directory_options::skip_permission_denied);
    for (auto end = fs::end(it); it != end; ++it) {
        if (it->is_directory()) {
            if (skippedDir(it->path()))
                it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && isSourceFile(it->path()))
            files.push_back(it->path().string());
    }
}

int
usage()
{
    std::cerr
        << "usage: nectar-lint [--packet-path <substr>]... "
           "[--explain] <file-or-dir>...\n"
           "Checks nectar-sim determinism and ownership rules "
           "D1-D8; see DESIGN.md.\n"
           "Files under a src/ directory also go through the "
           "component access-graph\n"
           "pass (layer rules D6/D8).\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::vector<std::string> files;
    bool explain = false;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--packet-path") {
            if (i + 1 >= args.size())
                return usage();
            opts.packetPathDirs.push_back(args[++i]);
        } else if (a == "--explain") {
            explain = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            return usage();
        } else if (fs::is_directory(a)) {
            collect(a, files);
        } else if (fs::exists(a)) {
            files.push_back(a);
        } else {
            std::cerr << "nectar-lint: no such file: " << a << "\n";
            return 2;
        }
    }
    if (explain) {
        for (const char *r :
             {"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "A1"})
            std::cout << r << "  "
                      << nectar::lint::ruleDescription(r) << "\n";
        if (files.empty())
            return 0;
    }
    if (files.empty())
        return usage();

    std::sort(files.begin(), files.end());
    std::size_t nFindings = 0;
    std::set<std::string> filesWithFindings;
    auto report = [&](const Finding &fd) {
        ++nFindings;
        filesWithFindings.insert(fd.file);
        std::cout << fd.file << ":" << fd.line << ": [" << fd.rule
                  << "] " << fd.message << "\n";
    };
    for (const auto &f : files) {
        std::vector<Finding> findings;
        try {
            findings = nectar::lint::lintFile(f, opts);
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
        for (const auto &fd : findings)
            report(fd);
    }

    std::vector<nectar::lint::SourceFile> srcs;
    for (const auto &f : files) {
        if (f.find("src/") == std::string::npos)
            continue;
        std::ifstream in(f, std::ios::binary);
        if (!in) {
            std::cerr << "nectar-lint: cannot read " << f << "\n";
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        srcs.push_back({f, ss.str()});
    }
    if (!srcs.empty()) {
        nectar::lint::GraphResult g = nectar::lint::analyzeGraph(srcs);
        for (const auto &fd : g.findings)
            report(fd);
        std::size_t direct = 0;
        for (const auto &e : g.edges)
            if (e.kind == "direct-mutation")
                ++direct;
        std::cout << "nectar-lint: graph: " << g.components.size()
                  << " component(s), " << g.edges.size()
                  << " edge(s), " << direct
                  << " direct cross-layer mutation(s)\n";
    }

    std::cout << "nectar-lint: " << nFindings << " finding(s) in "
              << filesWithFindings.size() << " of " << files.size()
              << " file(s)\n";
    return nFindings == 0 ? 0 : 1;
}
