#include "graph.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <regex>
#include <set>
#include <sstream>

#include "source.hh"

namespace nectar::lint {

namespace {

// ====================================================================
// Pass-1 support: class indexing.
// ====================================================================

/** A parsed member-function body awaiting the edge scan. */
struct Body
{
    std::string cls;     ///< Bare class name of `this`.
    std::size_t fileIdx; ///< Index into the prepared-file table.
    std::size_t paramsBegin = 0, paramsEnd = 0; ///< Inside the parens.
    std::size_t begin = 0, end = 0;             ///< Inside the braces.
    std::size_t initBegin = 0, initEnd = 0;     ///< Ctor init list.
};

/** Per-file prepared state shared by both passes. */
struct PreparedFile
{
    std::string path;
    Prepared prep;
    Suppressions sup;
};

/** Last identifier segment of a (possibly qualified) type name. */
std::string
bareName(std::string t)
{
    // Strip template arguments, then namespace qualifiers.
    auto lt = t.find('<');
    if (lt != std::string::npos)
        t.erase(lt);
    auto q = t.rfind("::");
    if (q != std::string::npos)
        t.erase(0, q + 2);
    // Trim whitespace and declarator punctuation.
    while (!t.empty() &&
           !identChar(t.back()))
        t.pop_back();
    auto b = t.find_last_not_of(
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_");
    if (b != std::string::npos)
        t.erase(0, b + 1);
    return t;
}

/** Skip forward past a balanced bracket if @p i sits on one. */
std::size_t
skipBracket(const std::string &code, std::size_t i)
{
    std::size_t e = matchBracket(code, i);
    return e == std::string::npos ? code.size() : e;
}

/** Advance to the ';' ending a declaration, skipping nesting. */
std::size_t
skipToSemi(const std::string &code, std::size_t i)
{
    while (i < code.size()) {
        char c = code[i];
        if (c == ';')
            return i + 1;
        if (c == '(' || c == '[' || c == '{') {
            i = skipBracket(code, i);
            continue;
        }
        ++i;
    }
    return i;
}

bool
wordAt(const std::string &code, std::size_t i, const char *w)
{
    std::size_t n = std::char_traits<char>::length(w);
    if (code.compare(i, n, w) != 0)
        return false;
    if (i > 0 && identChar(code[i - 1]))
        return false;
    return i + n >= code.size() || !identChar(code[i + n]);
}

/** Read the identifier starting at @p i (must be an ident char). */
std::string
identAt(const std::string &code, std::size_t i)
{
    std::size_t j = i;
    while (j < code.size() && identChar(code[j]))
        ++j;
    return code.substr(i, j - i);
}

/** Identifier ending at (and including) position @p i, or "". */
std::string
identEndingAt(const std::string &code, std::size_t i)
{
    if (!identChar(code[i]))
        return {};
    std::size_t b = i;
    while (b > 0 && identChar(code[b - 1]))
        --b;
    return code.substr(b, i - b + 1);
}

/** Everything the indexer knows, plus lookup tables. */
struct Index
{
    std::vector<PreparedFile> files;
    /** All indexed classes by bare name (first definition wins). */
    std::map<std::string, ClassInfo> classes;
    /** Inline + out-of-line member bodies. */
    std::vector<Body> bodies;
    /** Merged (own + inherited) field lookup per class. */
    std::map<std::string, std::map<std::string, const FieldInfo *>>
        fieldLookup;
    /** Merged (own + inherited) method lookup per class. */
    std::map<std::string, std::map<std::string, const MethodInfo *>>
        methodLookup;
    /** Ownership closure: owner -> transitively owned classes. */
    std::map<std::string, std::set<std::string>> owns;

    const ClassInfo *
    cls(const std::string &name) const
    {
        auto it = classes.find(name);
        return it == classes.end() ? nullptr : &it->second;
    }

    bool
    isNode(const std::string &name) const
    {
        const ClassInfo *c = cls(name);
        return c && (c->component || c->interface);
    }
};

/**
 * Parse one class body: access sections, fields, methods, inline
 * member bodies.  @p open is the position of the opening brace.
 */
void
parseClassBody(Index &ix, ClassInfo &ci, std::size_t fileIdx,
               std::size_t open, bool isStruct)
{
    const std::string &code = ix.files[fileIdx].prep.code;
    std::size_t close = matchBracket(code, open);
    if (close == std::string::npos)
        return;
    bool isPublic = isStruct;

    std::size_t i = open + 1;
    while (i < close - 1) {
        i = skipWs(code, i);
        if (i >= close - 1)
            break;
        char c = code[i];

        // Access labels.
        bool label = false;
        for (const char *w : {"public", "protected", "private"}) {
            if (wordAt(code, i, w)) {
                std::size_t k = skipWs(code, i + identAt(code, i)
                                                   .size());
                if (k < code.size() && code[k] == ':' &&
                    (k + 1 >= code.size() || code[k + 1] != ':')) {
                    isPublic = std::string(w) == "public";
                    i = k + 1;
                    label = true;
                }
            }
        }
        if (label)
            continue;

        // Declarations we skip outright.
        if (wordAt(code, i, "using") || wordAt(code, i, "typedef") ||
            wordAt(code, i, "friend")) {
            i = skipToSemi(code, i);
            continue;
        }
        if (wordAt(code, i, "template")) {
            std::size_t lt = code.find('<', i);
            i = lt == std::string::npos ? i + 8
                                        : skipBracket(code, lt);
            continue;
        }
        // Nested type definitions: the global indexer picks them up;
        // here just skip past (their braces, then the ';').
        if (wordAt(code, i, "class") || wordAt(code, i, "struct") ||
            wordAt(code, i, "union") || wordAt(code, i, "enum")) {
            i = skipToSemi(code, i);
            continue;
        }
        if (c == ';') {
            ++i;
            continue;
        }
        if (c == '[') { // attribute
            i = skipBracket(code, i);
            continue;
        }
        if (c == '~') { // destructor
            std::size_t p = code.find('(', i);
            if (p == std::string::npos || p > close)
                break;
            std::size_t pe = skipBracket(code, p);
            std::size_t k = skipWs(code, pe);
            while (k < close &&
                   (wordAt(code, k, "override") ||
                    wordAt(code, k, "noexcept") ||
                    wordAt(code, k, "final")))
                k = skipWs(code, k + identAt(code, k).size());
            if (k < close && code[k] == '{') {
                ix.bodies.push_back({ci.name, fileIdx, p + 1, pe - 1,
                                     k + 1, skipBracket(code, k) - 1,
                                     0, 0});
                i = skipBracket(code, k);
            } else {
                i = skipToSemi(code, k);
            }
            continue;
        }

        // Scan this declaration for the earliest of ';', '=', '{',
        // '(' — skipping template argument lists.
        std::size_t declBegin = i;
        std::size_t j = i;
        char term = '\0';
        bool isOperator = false;
        while (j < close - 1) {
            char d = code[j];
            if (d == ';' || d == '=' || d == '{' || d == '(') {
                term = d;
                break;
            }
            if (d == '<' && j > 0 && identChar(code[j - 1])) {
                j = skipBracket(code, j);
                continue;
            }
            if (identChar(d) && wordAt(code, j, "operator")) {
                isOperator = true;
                break;
            }
            ++j;
        }
        if (isOperator || term == '\0') {
            // Skip an operator (possibly with an inline body) or an
            // unparsable tail.
            std::size_t k = j;
            while (k < close - 1 && code[k] != '{' && code[k] != ';')
                k = (code[k] == '(') ? skipBracket(code, k) : k + 1;
            i = (k < close - 1 && code[k] == '{')
                    ? skipBracket(code, k)
                    : k + 1;
            continue;
        }

        if (term == '(') {
            // Method (or function-pointer field).
            std::size_t nx = skipWs(code, j + 1);
            if (nx < code.size() &&
                (code[nx] == '*' || code[nx] == '&')) {
                // `ret (*name)(args)` — a function-pointer field.
                std::size_t inner = skipWs(code, nx + 1);
                FieldInfo f;
                f.name = identChar(code[inner]) ? identAt(code, inner)
                                                : std::string();
                f.kind = FieldInfo::ptr;
                if (!f.name.empty())
                    ci.fields.push_back(f);
                i = skipToSemi(code, j);
                continue;
            }
            std::size_t nameEnd = prevNonWs(code, j);
            std::string name = nameEnd == std::string::npos
                                   ? std::string()
                                   : identEndingAt(code, nameEnd);
            if (name.empty()) {
                i = skipToSemi(code, j);
                continue;
            }
            std::size_t pe = skipBracket(code, j);
            // Post-tokens: const / noexcept / override / final /
            // trailing return, then '{', ';', '=' or ':' (ctor).
            bool isConst = false;
            std::size_t k = skipWs(code, pe);
            while (k < close - 1) {
                if (wordAt(code, k, "const")) {
                    isConst = true;
                    k = skipWs(code, k + 5);
                } else if (wordAt(code, k, "noexcept") ||
                           wordAt(code, k, "override") ||
                           wordAt(code, k, "final")) {
                    k = skipWs(code, k + identAt(code, k).size());
                    if (k < close - 1 && code[k] == '(')
                        k = skipWs(code, skipBracket(code, k));
                } else if (code[k] == '-' && k + 1 < close &&
                           code[k + 1] == '>') {
                    k = skipWs(code, k + 2);
                    while (k < close - 1 && code[k] != '{' &&
                           code[k] != ';')
                        k = identChar(code[k])
                                ? k + identAt(code, k).size()
                                : (code[k] == '<'
                                       ? skipBracket(code, k)
                                       : k + 1);
                } else {
                    break;
                }
            }
            // Return type: the head before the name, specifiers
            // stripped.
            std::string head =
                code.substr(declBegin, j - declBegin);
            head = head.substr(0, head.rfind(name));
            static const std::regex spec(
                R"(\b(virtual|static|inline|constexpr|explicit)\b)");
            head = std::regex_replace(head, spec, " ");
            std::string retBare = bareName(head);

            MethodInfo m;
            m.name = name;
            m.isConst = isConst;
            m.isPublic = isPublic;
            m.returnsType = retBare; // filtered to indexed later
            ci.methods.push_back(m);

            std::size_t initB = 0, initE = 0;
            if (k < close - 1 && code[k] == ':' &&
                (k + 1 >= close || code[k + 1] != ':')) {
                // Ctor init list: items `name(args)` / `name{args}`.
                initB = k + 1;
                std::size_t p = k + 1;
                while (p < close - 1) {
                    p = skipWs(code, p);
                    while (p < close - 1 &&
                           (identChar(code[p]) || code[p] == ':'))
                        ++p;
                    p = skipWs(code, p);
                    if (p < close - 1 &&
                        (code[p] == '(' || code[p] == '{'))
                        p = skipWs(code, skipBracket(code, p));
                    if (p < close - 1 && code[p] == ',') {
                        ++p;
                        continue;
                    }
                    break;
                }
                initE = p;
                k = p;
            }
            if (k < close - 1 && code[k] == '{') {
                ix.bodies.push_back({ci.name, fileIdx, j + 1, pe - 1,
                                     k + 1, skipBracket(code, k) - 1,
                                     initB, initE});
                i = skipBracket(code, k);
            } else if (k < close - 1 && code[k] == '=') {
                i = skipToSemi(code, k); // = 0 / default / delete
            } else {
                i = (k < close - 1 && code[k] == ';') ? k + 1
                                                      : skipToSemi(
                                                            code, k);
            }
            continue;
        }

        // Field declaration (term is ';', '=' or '{').
        std::string declText =
            code.substr(declBegin, j - declBegin);
        std::size_t nameEnd = prevNonWs(code, j);
        std::string fname = nameEnd == std::string::npos
                                ? std::string()
                                : identEndingAt(code, nameEnd);
        if (!fname.empty()) {
            std::string typeText =
                declText.substr(0, declText.rfind(fname));
            FieldInfo f;
            f.name = fname;
            if (typeText.find('&') != std::string::npos)
                f.kind = FieldInfo::ref;
            else if (typeText.find('*') != std::string::npos)
                f.kind = FieldInfo::ptr;
            if (typeText.find("unique_ptr") != std::string::npos) {
                f.kind =
                    typeText.find("vector") != std::string::npos
                        ? FieldInfo::vecUnique
                        : FieldInfo::unique;
                // Innermost template argument carries the type.
                auto lt = typeText.rfind('<');
                if (lt != std::string::npos)
                    typeText = typeText.substr(lt + 1);
            }
            f.type = bareName(typeText);
            ci.fields.push_back(f);
        }
        i = (term == ';') ? j + 1 : skipToSemi(code, j);
    }
}

/** Pass 1a: find every class/struct definition in @p fileIdx. */
void
indexFile(Index &ix, std::size_t fileIdx)
{
    const std::string &code = ix.files[fileIdx].prep.code;
    static const std::regex def(R"(\b(class|struct)\s+([A-Za-z_]\w*))");
    std::string ns; // innermost namespace seen (for `qualified`)
    static const std::regex nsRe(R"(\bnamespace\s+([\w:]+)\s*\{)");
    std::smatch nm;
    std::string sub = code;
    if (std::regex_search(sub, nm, nsRe))
        ns = nm[1].str();

    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        def);
         it != std::sregex_iterator(); ++it) {
        std::size_t pos = static_cast<std::size_t>(it->position());
        // `enum class` is not a class definition.
        std::size_t pv = prevNonWs(code, pos);
        if (pv != std::string::npos) {
            std::string prev = identEndingAt(code, pv);
            if (prev == "enum" || prev == "friend")
                continue;
        }
        std::string name = (*it)[2].str();
        std::size_t i =
            skipWs(code, pos + it->str().size());
        if (i < code.size() && wordAt(code, i, "final"))
            i = skipWs(code, i + 5);
        std::vector<std::string> bases;
        if (i < code.size() && code[i] == ':' &&
            (i + 1 >= code.size() || code[i + 1] != ':')) {
            std::size_t ob = code.find('{', i);
            if (ob == std::string::npos)
                continue;
            std::string blist = code.substr(i + 1, ob - i - 1);
            static const std::regex spec(
                R"(\b(public|protected|private|virtual)\b)");
            blist = std::regex_replace(blist, spec, " ");
            std::stringstream ss(blist);
            std::string b;
            while (std::getline(ss, b, ','))
                if (!bareName(b).empty())
                    bases.push_back(bareName(b));
            i = ob;
        }
        if (i >= code.size() || code[i] != '{')
            continue; // forward declaration
        bool isStruct = (*it)[1].str() == "struct";

        if (ix.classes.count(name))
            continue; // first definition wins
        ClassInfo ci;
        ci.name = name;
        ci.qualified = ns.empty() ? name : ns + "::" + name;
        ci.file = ix.files[fileIdx].path;
        ci.line = lineOf(code, pos);
        ci.bases = bases;
        parseClassBody(ix, ci, fileIdx, i, isStruct);
        ix.classes.emplace(name, std::move(ci));
    }
}

/** Pass 1b: out-of-line `Class::method(...) { ... }` bodies. */
void
indexOutOfLine(Index &ix, std::size_t fileIdx)
{
    const std::string &code = ix.files[fileIdx].prep.code;
    static const std::regex def(
        R"(\b([A-Za-z_]\w*)\s*::\s*(~?[A-Za-z_]\w*)\s*\()");
    std::vector<std::pair<std::size_t, std::smatch>> hits;
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        def);
         it != std::sregex_iterator(); ++it)
        hits.emplace_back(static_cast<std::size_t>(it->position()),
                          *it);

    // Accept only matches at namespace scope (depth counted over
    // non-namespace braces must be zero).
    std::size_t h = 0;
    int depth = 0;
    std::vector<bool> nsBrace;
    for (std::size_t i = 0; i < code.size() && h < hits.size();
         ++i) {
        char c = code[i];
        if (c == '{') {
            std::size_t pv = prevNonWs(code, i);
            bool isNs = false;
            if (pv != std::string::npos) {
                // `namespace {`, `namespace x {`, `namespace a::b {`
                std::size_t b = pv + 1;
                while (b > 0 &&
                       (identChar(code[b - 1]) || code[b - 1] == ':'))
                    --b;
                std::string tok = code.substr(b, pv - b + 1);
                if (tok == "namespace") {
                    isNs = true;
                } else if (!tok.empty() && b > 0) {
                    std::size_t pw = prevNonWs(code, b);
                    if (pw != std::string::npos &&
                        identEndingAt(code, pw) == "namespace")
                        isNs = true;
                }
            }
            nsBrace.push_back(isNs);
            if (!isNs)
                ++depth;
        } else if (c == '}') {
            if (!nsBrace.empty()) {
                if (!nsBrace.back())
                    --depth;
                nsBrace.pop_back();
            }
        }
        while (h < hits.size() && hits[h].first == i) {
            if (depth == 0) {
                const std::smatch &m = hits[h].second;
                std::string cls = m[1].str();
                if (ix.classes.count(cls)) {
                    std::size_t op =
                        hits[h].first + m.str().size() - 1;
                    std::size_t pe = skipBracket(code, op);
                    std::size_t k = skipWs(code, pe);
                    bool bad = false;
                    std::size_t initB = 0, initE = 0;
                    while (k < code.size() && !bad) {
                        if (wordAt(code, k, "const") ||
                            wordAt(code, k, "noexcept"))
                            k = skipWs(code,
                                       k + identAt(code, k).size());
                        else if (code[k] == ':' &&
                                 (k + 1 >= code.size() ||
                                  code[k + 1] != ':')) {
                            initB = k + 1;
                            std::size_t p = k + 1;
                            while (p < code.size()) {
                                p = skipWs(code, p);
                                while (p < code.size() &&
                                       (identChar(code[p]) ||
                                        code[p] == ':'))
                                    ++p;
                                p = skipWs(code, p);
                                if (p < code.size() &&
                                    (code[p] == '(' ||
                                     code[p] == '{'))
                                    p = skipWs(
                                        code, skipBracket(code, p));
                                if (p < code.size() &&
                                    code[p] == ',') {
                                    ++p;
                                    continue;
                                }
                                break;
                            }
                            initE = p;
                            k = p;
                            break;
                        } else {
                            break;
                        }
                    }
                    if (k < code.size() && code[k] == '{') {
                        ix.bodies.push_back(
                            {cls, fileIdx, op + 1, pe - 1, k + 1,
                             skipBracket(code, k) - 1, initB,
                             initE});
                    }
                }
            }
            ++h;
        }
    }
}

/** Mark the Component closure, interfaces, roles; merge lookups. */
void
finalizeIndex(Index &ix, const GraphOptions &opts)
{
    // Component closure, seeded on the class named Component.
    bool changed = ix.classes.count("Component") > 0;
    if (changed)
        ix.classes.at("Component").component = true;
    while (changed) {
        changed = false;
        for (auto &[name, ci] : ix.classes) {
            if (ci.component)
                continue;
            for (const auto &b : ci.bases) {
                auto it = ix.classes.find(b);
                if (it != ix.classes.end() &&
                    it->second.component) {
                    ci.component = true;
                    changed = true;
                }
            }
        }
    }
    // Interfaces: non-component bases of components.
    for (auto &[name, ci] : ix.classes)
        if (ci.component)
            for (const auto &b : ci.bases) {
                auto it = ix.classes.find(b);
                if (it != ix.classes.end() &&
                    !it->second.component)
                    it->second.interface = true;
            }

    // Roles from the layer directory.
    for (auto &[name, ci] : ix.classes) {
        ci.role = "control";
        auto s = ci.file.rfind("src/");
        if (s != std::string::npos) {
            std::size_t b = s + 4;
            auto e = ci.file.find('/', b);
            if (e != std::string::npos) {
                auto it =
                    opts.roleOfDir.find(ci.file.substr(b, e - b));
                if (it != opts.roleOfDir.end())
                    ci.role = it->second;
            }
        }
    }

    // Field types and method return types: keep only indexed names.
    for (auto &[name, ci] : ix.classes) {
        for (auto &f : ci.fields)
            if (!ix.classes.count(f.type))
                f.type.clear();
        for (auto &m : ci.methods)
            if (!ix.classes.count(m.returnsType))
                m.returnsType.clear();
    }

    // Merged lookups (own members shadow inherited ones).
    for (auto &[name, ci] : ix.classes) {
        auto &fl = ix.fieldLookup[name];
        auto &ml = ix.methodLookup[name];
        std::set<std::string> seen;
        std::function<void(const std::string &)> add =
            [&](const std::string &cn) {
                if (!seen.insert(cn).second)
                    return;
                auto it = ix.classes.find(cn);
                if (it == ix.classes.end())
                    return;
                for (const auto &f : it->second.fields)
                    fl.emplace(f.name, &f);
                for (const auto &m : it->second.methods)
                    ml.emplace(m.name, &m);
                for (const auto &b : it->second.bases)
                    add(b);
            };
        add(name);
    }

    // Ownership closure over value / unique_ptr fields of nodes.
    for (auto &[name, ci] : ix.classes) {
        if (!(ci.component || ci.interface))
            continue;
        for (const auto &f : ci.fields)
            if (!f.type.empty() && ix.isNode(f.type) &&
                (f.kind == FieldInfo::value ||
                 f.kind == FieldInfo::unique ||
                 f.kind == FieldInfo::vecUnique))
                ix.owns[name].insert(f.type);
    }
    changed = true;
    while (changed) {
        changed = false;
        for (auto &[owner, set] : ix.owns) {
            std::set<std::string> next = set;
            for (const auto &o : set) {
                auto it = ix.owns.find(o);
                if (it != ix.owns.end())
                    for (const auto &oo : it->second)
                        next.insert(oo);
            }
            if (next.size() != set.size()) {
                set = std::move(next);
                changed = true;
            }
        }
    }
}

// ====================================================================
// Pass 2: chain resolution and edge classification.
// ====================================================================

/** One `a.b().c` chain segment. */
struct Seg
{
    std::string name;
    bool isCall = false;
    std::size_t pos = 0; ///< Name position in the file's code.
};

/** Parse a member-access chain starting at @p i (an ident char). */
std::vector<Seg>
parseChain(const std::string &code, std::size_t i,
           std::size_t limit, std::size_t &endOut)
{
    std::vector<Seg> segs;
    std::size_t p = i;
    while (p < limit && identChar(code[p]) &&
           !std::isdigit(static_cast<unsigned char>(code[p]))) {
        Seg s;
        s.pos = p;
        s.name = identAt(code, p);
        std::size_t k = skipWs(code, p + s.name.size());
        if (k < limit && code[k] == '(') {
            s.isCall = true;
            k = skipWs(code, skipBracket(code, k));
        }
        segs.push_back(std::move(s));
        if (k + 1 < limit && code[k] == '-' && code[k + 1] == '>')
            p = skipWs(code, k + 2);
        else if (k < limit && code[k] == '.' &&
                 (k + 1 >= limit || code[k + 1] != '.'))
            p = skipWs(code, k + 1);
        else {
            endOut = k;
            return segs;
        }
    }
    endOut = p;
    return segs;
}

/** True when an assignment / increment follows position @p k. */
bool
assignFollows(const std::string &code, std::size_t k)
{
    k = skipWs(code, k);
    if (k >= code.size())
        return false;
    char c = code[k];
    char n = k + 1 < code.size() ? code[k + 1] : '\0';
    if (c == '=' && n != '=')
        return true;
    if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' ||
         c == '|' || c == '&' || c == '^') &&
        n == '=')
        return true;
    if ((c == '+' && n == '+') || (c == '-' && n == '-'))
        return true;
    if ((c == '<' && n == '<' && k + 2 < code.size() &&
         code[k + 2] == '=') ||
        (c == '>' && n == '>' && k + 2 < code.size() &&
         code[k + 2] == '='))
        return true;
    return false;
}

/** Outcome of resolving a chain against the index. */
struct ResolvedChain
{
    const ClassInfo *target = nullptr; ///< Last component reached.
    std::string member;  ///< Member leaving the component.
    std::string via;     ///< First chain segment.
    bool mutation = false;
    bool implicitSelf = false; ///< Base object is `this` itself.
    std::size_t pos = 0; ///< Chain start (for the line number).
};

/**
 * Resolve @p segs in the context of @p self's body.
 * @p locals maps local/param names to bare class names.
 */
ResolvedChain
resolveChain(const Index &ix, const ClassInfo *self,
             const std::map<std::string, std::string> &locals,
             const std::vector<Seg> &segs, bool trailingAssign)
{
    ResolvedChain out;
    if (segs.size() < 2 || !self)
        return out;
    out.via = segs[0].name;
    out.pos = segs[0].pos;

    const auto &sf = ix.fieldLookup.at(self->name);
    const auto &sm = ix.methodLookup.at(self->name);

    const ClassInfo *cur = nullptr;
    std::size_t idx = 0;
    bool baseIsSelfObject = false;

    if (segs[0].name == "this") {
        cur = self;
        baseIsSelfObject = true;
        idx = 1;
    } else {
        auto lt = locals.find(segs[0].name);
        if (lt != locals.end()) {
            cur = ix.cls(lt->second);
            idx = 1;
        } else if (auto ft = sf.find(segs[0].name); ft != sf.end()) {
            if (ft->second->type.empty())
                cur = nullptr;
            else
                cur = ix.cls(ft->second->type);
            idx = 1;
        } else if (auto mt = sm.find(segs[0].name);
                   mt != sm.end() && segs[0].isCall) {
            if (mt->second->returnsType.empty()) {
                // A self accessor into non-indexed internals: the
                // object is still `this`.
                cur = nullptr;
            } else {
                cur = ix.cls(mt->second->returnsType);
            }
            idx = 1;
            if (cur == nullptr || cur == self)
                baseIsSelfObject = true;
            if (cur != nullptr && cur != self &&
                !(cur->component || cur->interface))
                baseIsSelfObject = true; // e.g. stats() -> CabStats
        } else {
            return out; // unresolvable base
        }
    }
    if (!cur)
        return out;

    const MethodInfo *leaveMethod = nullptr;
    const FieldInfo *leaveField = nullptr;
    bool left = false; ///< Past the component boundary.
    std::size_t leaveIdx = 0;

    // If the base accessor already landed on a non-node aggregate of
    // self (stats() -> CabStats), treat self as the pending target.
    if (baseIsSelfObject && cur != self &&
        !(cur->component || cur->interface)) {
        out.target = self;
        out.member = segs[0].name;
        left = true;
        leaveIdx = 0;
        auto mt = sm.find(segs[0].name);
        if (mt != sm.end())
            leaveMethod = mt->second;
    }

    for (; idx < segs.size(); ++idx) {
        const Seg &s = segs[idx];
        auto fl = ix.fieldLookup.find(cur->name);
        auto ml = ix.methodLookup.find(cur->name);
        const FieldInfo *f = nullptr;
        const MethodInfo *m = nullptr;
        if (fl != ix.fieldLookup.end()) {
            auto it = fl->second.find(s.name);
            if (it != fl->second.end())
                f = it->second;
        }
        if (ml != ix.methodLookup.end()) {
            auto it = ml->second.find(s.name);
            if (it != ml->second.end())
                m = it->second;
        }

        const ClassInfo *next = nullptr;
        if (s.isCall && m)
            next = m->returnsType.empty() ? nullptr
                                          : ix.cls(m->returnsType);
        else if (!s.isCall && f)
            next = f->type.empty() ? nullptr : ix.cls(f->type);
        else if (!m && !f) {
            // Unknown member.  Past the boundary: stay conservative
            // (a call on foreign internals counts as mutation).
            if (left) {
                if (s.isCall)
                    out.mutation = true;
                break;
            }
            return {}; // unknown member on a node: no edge
        }

        if (!left) {
            if (next && (next->component || next->interface)) {
                cur = next; // pure traversal between nodes
                baseIsSelfObject = baseIsSelfObject && next == self;
                continue;
            }
            // Leaving the component: this is the accessed member.
            out.target = cur;
            out.member = s.name;
            left = true;
            leaveIdx = idx;
            leaveMethod = s.isCall ? m : nullptr;
            leaveField = s.isCall ? nullptr : f;
            if (!next)
                break;
            cur = next;
            continue;
        }
        // Past the boundary: keep resolving for the mutation verdict.
        if (s.isCall && m && !m->isConst)
            out.mutation = true;
        if (!next)
            break;
        cur = next;
    }

    if (!out.target)
        return out;
    out.implicitSelf = baseIsSelfObject && out.target == self;

    // Mutation verdict at the boundary member.
    if (leaveMethod) {
        if (!leaveMethod->isConst)
            out.mutation = true;
    } else if (leaveField) {
        if (leaveIdx + 1 >= segs.size()) {
            if (trailingAssign)
                out.mutation = true;
        }
        // Deeper mutations were detected in the loop above.
    }
    if (trailingAssign && leaveIdx + 1 <= segs.size() - 1)
        out.mutation = true;
    if (trailingAssign && leaveIdx + 1 >= segs.size() && leaveField)
        out.mutation = true;

    return out;
}

bool
allowlisted(const Index &ix, const GraphOptions &opts,
            const ClassInfo *target, const std::string &member)
{
    std::set<std::string> names;
    std::function<void(const std::string &)> add =
        [&](const std::string &n) {
            if (!names.insert(n).second)
                return;
            const ClassInfo *c = ix.cls(n);
            if (c)
                for (const auto &b : c->bases)
                    add(b);
        };
    add(target->name);
    for (const auto &[cls, m] : opts.mediatedAllowlist)
        if (m == member && names.count(cls))
            return true;
    return false;
}

/** Collect `Type name` local/parameter declarations in a range. */
void
collectLocals(const Index &ix, const std::string &code,
              std::size_t b, std::size_t e,
              std::map<std::string, std::string> &locals)
{
    if (b >= e)
        return;
    std::string text = code.substr(b, e - b);
    static const std::regex decl(
        R"(\b((?:\w+::)*[A-Z]\w*)(?:<[^<>;]*>)?\s*(?:[&*]\s*)?)"
        R"(([a-z_]\w*)\b)");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        decl);
         it != std::sregex_iterator(); ++it) {
        std::string type = bareName((*it)[1].str());
        if (ix.classes.count(type))
            locals.emplace((*it)[2].str(), type);
    }
}

/** Scan one body: edges, D6, D8. */
void
scanBody(const Index &ix, const GraphOptions &opts, const Body &body,
         std::vector<AccessEdge> &edges,
         std::vector<Finding> &findings)
{
    const PreparedFile &pf = ix.files[body.fileIdx];
    const std::string &code = pf.prep.code;
    const ClassInfo *self = ix.cls(body.cls);
    if (!self || !(self->component || self->interface))
        return;

    std::map<std::string, std::string> locals;
    collectLocals(ix, code, body.paramsBegin, body.paramsEnd, locals);
    collectLocals(ix, code, body.begin, body.end, locals);

    auto recordEdge = [&](const ResolvedChain &rc) {
        if (!rc.target || rc.implicitSelf)
            return;
        if (!(rc.target->component || rc.target->interface))
            return;
        int line = lineOf(code, rc.pos);
        AccessEdge e;
        e.from = self->name;
        e.to = rc.target->name;
        e.via = rc.via;
        e.member = rc.member;
        e.mutation = rc.mutation;
        e.file = pf.path;
        e.line = line;
        auto owns = [&](const std::string &a, const std::string &b) {
            auto it = ix.owns.find(a);
            return it != ix.owns.end() && it->second.count(b) > 0;
        };
        if (allowlisted(ix, opts, rc.target, rc.member)) {
            e.kind = "mediated";
        } else if (owns(e.from, e.to) || owns(e.to, e.from)) {
            e.kind = "owned";
        } else if (!e.mutation) {
            e.kind = "read";
        } else if (self->role == rc.target->role) {
            e.kind = "co-located";
        } else if (pf.sup.covers("D6", line)) {
            e.kind = "mediated";
            e.annotated = true;
        } else {
            e.kind = "direct-mutation";
            findings.push_back(
                {"D6", pf.path, line,
                 "direct cross-component mutation " + e.from +
                     " -> " + e.to + "::" + e.member + " (" +
                     self->role + " -> " + rc.target->role +
                     ") bypasses the event queue; route it through "
                     "a mediated surface or annotate "
                     "'nectar-lint: mediated-ok <why>'"});
        }
        edges.push_back(std::move(e));
    };

    // ----- Access chains -------------------------------------------
    for (std::size_t i = body.begin; i < body.end; ++i) {
        if (!identChar(code[i]) ||
            std::isdigit(static_cast<unsigned char>(code[i])))
            continue;
        if (i > 0 && identChar(code[i - 1])) {
            while (i < body.end && identChar(code[i]))
                ++i;
            continue;
        }
        // Skip mid-chain segments and qualified names; note unary
        // address-of (the access itself mutates nothing — retaining
        // the pointer is D8's business).
        bool addrOf = false;
        std::size_t pv = prevNonWs(code, i);
        if (pv != std::string::npos) {
            char pc = code[pv];
            if (pc == '.' || pc == ':' ||
                (pc == '>' && pv > 0 && code[pv - 1] == '-')) {
                while (i < body.end && identChar(code[i]))
                    ++i;
                continue;
            }
            if (pc == '&' && (pv == 0 || (!identChar(code[pv - 1]) &&
                                          code[pv - 1] != ')')))
                addrOf = true;
        }
        std::size_t end = i;
        std::vector<Seg> segs = parseChain(code, i, body.end, end);
        std::size_t nameEnd = i;
        while (nameEnd < body.end && identChar(code[nameEnd]))
            ++nameEnd;
        if (segs.size() >= 2) {
            ResolvedChain rc =
                resolveChain(ix, self, locals, segs,
                             assignFollows(code, end));
            if (addrOf)
                rc.mutation = false;
            recordEdge(rc);
        }
        i = nameEnd - 1;
    }

    // ----- D8: foreign-internals pointers stored in fields ---------
    auto checkForeignRef = [&](const std::string &lhs,
                               std::size_t chainPos) {
        const auto &sf = ix.fieldLookup.at(self->name);
        if (sf.find(lhs) == sf.end())
            return; // not stored in a field: a transient is fine
        std::size_t end = chainPos;
        std::vector<Seg> segs =
            parseChain(code, chainPos, body.end, end);
        if (segs.size() < 2)
            return; // whole-component wiring (tx = &link)
        ResolvedChain rc =
            resolveChain(ix, self, locals, segs, false);
        if (!rc.target || rc.implicitSelf)
            return;
        if (!(rc.target->component || rc.target->interface))
            return;
        int line = lineOf(code, chainPos);
        AccessEdge e;
        e.from = self->name;
        e.to = rc.target->name;
        e.via = rc.via;
        e.member = rc.member;
        e.mutation = true;
        e.file = pf.path;
        e.line = line;
        e.kind = "foreign-ref";
        if (pf.sup.covers("D8", line)) {
            e.annotated = true;
        } else {
            findings.push_back(
                {"D8", pf.path, line,
                 "field '" + lhs + "' stores a reference into " +
                     e.to + "::" + e.member +
                     " — another component's internals retained "
                     "across ticks; hold the component itself and "
                     "access it per tick, or annotate "
                     "'nectar-lint: foreign-ref-ok <why>'"});
        }
        edges.push_back(std::move(e));
    };

    // `field = &chain;` inside the body.
    for (std::size_t i = body.begin; i < body.end; ++i) {
        if (code[i] != '=')
            continue;
        char p = i > 0 ? code[i - 1] : '\0';
        char n = i + 1 < body.end ? code[i + 1] : '\0';
        if (p == '=' || p == '!' || p == '<' || p == '>' ||
            p == '+' || p == '-' || p == '*' || p == '/' ||
            p == '&' || p == '|' || p == '^' || n == '=')
            continue;
        std::size_t amp = skipWs(code, i + 1);
        if (amp >= body.end || code[amp] != '&')
            continue;
        std::size_t chain = skipWs(code, amp + 1);
        if (chain >= body.end || !identChar(code[chain]))
            continue;
        std::size_t pv = prevNonWs(code, i);
        if (pv == std::string::npos || !identChar(code[pv]))
            continue;
        std::string lhs = identEndingAt(code, pv);
        // `this->field = &...`
        checkForeignRef(lhs, chain);
    }
    // `field(&chain)` / `field{&chain}` in the ctor init list.
    if (body.initBegin < body.initEnd) {
        std::size_t i = body.initBegin;
        while (i < body.initEnd) {
            i = skipWs(code, i);
            if (i >= body.initEnd || !identChar(code[i]))
                break;
            std::string name = identAt(code, i);
            std::size_t k = skipWs(code, i + name.size());
            if (k < body.initEnd &&
                (code[k] == '(' || code[k] == '{')) {
                std::size_t inner = skipWs(code, k + 1);
                if (inner < body.initEnd && code[inner] == '&') {
                    std::size_t chain = skipWs(code, inner + 1);
                    if (chain < body.initEnd &&
                        identChar(code[chain]))
                        checkForeignRef(name, chain);
                }
                k = skipBracket(code, k);
            }
            k = skipWs(code, k);
            if (k < body.initEnd && code[k] == ',')
                i = k + 1;
            else
                break;
        }
    }
}

} // namespace

// ====================================================================
// Public interface.
// ====================================================================

GraphResult
analyzeGraph(const std::vector<SourceFile> &files,
             const GraphOptions &opts)
{
    Index ix;
    std::vector<SourceFile> sorted = files;
    std::sort(sorted.begin(), sorted.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    for (const auto &f : sorted) {
        PreparedFile pf;
        pf.path = f.path;
        pf.prep = prepare(f.text);
        std::vector<Finding> scratch; // A1s belong to the file pass
        pf.sup = parseAnnotations(pf.prep, f.path, scratch);
        ix.files.push_back(std::move(pf));
    }
    for (std::size_t i = 0; i < ix.files.size(); ++i)
        indexFile(ix, i);
    finalizeIndex(ix, opts);
    for (std::size_t i = 0; i < ix.files.size(); ++i)
        indexOutOfLine(ix, i);

    GraphResult out;
    std::vector<AccessEdge> edges;
    for (const auto &b : ix.bodies)
        scanBody(ix, opts, b, edges, out.findings);

    // Deduplicate and sort edges and findings deterministically.
    auto edgeKey = [](const AccessEdge &e) {
        return e.file + "\0" + std::to_string(e.line) + "\0" +
               e.from + "\0" + e.to + "\0" + e.member + "\0" + e.kind;
    };
    std::sort(edges.begin(), edges.end(),
              [&](const AccessEdge &a, const AccessEdge &b) {
                  return edgeKey(a) < edgeKey(b);
              });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [&](const AccessEdge &a,
                                const AccessEdge &b) {
                                return edgeKey(a) == edgeKey(b);
                            }),
                edges.end());
    out.edges = std::move(edges);

    std::sort(out.findings.begin(), out.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    out.findings.erase(
        std::unique(out.findings.begin(), out.findings.end(),
                    [](const Finding &a, const Finding &b) {
                        return a.file == b.file &&
                               a.line == b.line && a.rule == b.rule;
                    }),
        out.findings.end());

    for (const auto &[name, ci] : ix.classes)
        if (ci.component || ci.interface)
            out.components.emplace(name, ci);
    return out;
}

} // namespace nectar::lint
