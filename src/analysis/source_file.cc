#include "analysis/source_file.hh"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace critmem::analysis
{

namespace
{

/** Split text into lines, tolerating a missing final newline. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string current;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(current);
            current.clear();
        } else if (c != '\r') {
            current += c;
        }
    }
    if (!current.empty())
        lines.push_back(current);
    if (lines.empty())
        lines.emplace_back();
    return lines;
}

/** One suppressed rule id parsed out of a comment. */
struct Tag
{
    /** lint:allow-file rather than lint:allow. */
    bool wholeFile;
    std::string value;
};

/** Append every lint:allow / lint:allow-file tag in @p comment. */
void
parseTags(const std::string &comment, std::vector<Tag> &out)
{
    static const struct
    {
        const char *prefix;
        bool wholeFile;
    } kKinds[] = {
        // allow-file before allow: the latter is a prefix of it.
        {"lint:allow-file", true},
        {"lint:allow", false},
    };
    std::size_t pos = 0;
    while ((pos = comment.find("lint:", pos)) != std::string::npos) {
        bool matched = false;
        for (const auto &kind : kKinds) {
            const std::size_t len = std::strlen(kind.prefix);
            if (comment.compare(pos, len, kind.prefix) != 0)
                continue;
            std::size_t p = pos + len;
            if (p >= comment.size() || comment[p] != '(')
                break; // "lint:allowance" etc: not a marker
            const std::size_t close = comment.find(')', p);
            if (close == std::string::npos)
                return; // unterminated: ignore the rest
            std::string values = comment.substr(p + 1, close - p - 1);
            std::string value;
            std::istringstream in(values);
            while (std::getline(in, value, ',')) {
                const std::size_t b = value.find_first_not_of(" \t");
                const std::size_t e = value.find_last_not_of(" \t");
                if (b == std::string::npos)
                    continue;
                out.push_back(
                    {kind.wholeFile, value.substr(b, e - b + 1)});
            }
            pos = close;
            matched = true;
            break;
        }
        if (!matched)
            pos += 5; // skip past "lint:"
    }
}

/** Whether a blanked-code line holds anything but whitespace. */
bool
blankCode(const std::string &code)
{
    return code.find_first_not_of(" \t") == std::string::npos;
}

} // namespace

bool
SourceFile::isHeader() const
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos)
        return false;
    const std::string ext = path.substr(dot);
    return ext == ".hh" || ext == ".h" || ext == ".hpp";
}

bool
SourceFile::suppressed(const std::string &rule, int line) const
{
    if (allowFile.count(rule))
        return true;
    if (line < 1 || static_cast<std::size_t>(line) > allow.size())
        return false;
    return allow[static_cast<std::size_t>(line) - 1].count(rule) > 0;
}

std::string
SourceFile::joinedCode() const
{
    std::string joined;
    for (const std::string &line : code) {
        joined += line;
        joined += '\n';
    }
    return joined;
}

int
SourceFile::lineOfOffset(std::size_t offset) const
{
    int line = 1;
    std::size_t consumed = 0;
    for (const std::string &text : code) {
        consumed += text.size() + 1;
        if (offset < consumed)
            return line;
        ++line;
    }
    return static_cast<int>(code.size());
}

SourceFile
makeSourceFile(std::string path, const std::string &text)
{
    SourceFile file;
    file.path = std::move(path);
    file.lines = splitLines(text);
    file.code.reserve(file.lines.size());
    file.allow.resize(file.lines.size());

    enum class State { Code, LineComment, BlockComment, Str, Chr };
    State state = State::Code;
    // Comment text accumulated for the line it ends on. Suppressions
    // always guard the comment's own line; when the comment has no
    // code on its line they additionally carry forward to the next
    // line that has code (so stand-alone and multi-line comments
    // work).
    std::string comment;
    std::vector<std::size_t> carrySites;

    for (std::size_t li = 0; li < file.lines.size(); ++li) {
        const std::string &raw = file.lines[li];
        std::string code(raw.size(), ' ');
        if (state == State::LineComment)
            state = State::Code; // line comments end at the newline
        comment.clear();

        for (std::size_t i = 0; i < raw.size(); ++i) {
            const char c = raw[i];
            const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
            switch (state) {
              case State::Code:
                if (c == '/' && next == '/') {
                    comment.append(raw, i, std::string::npos);
                    i = raw.size();
                    state = State::LineComment;
                } else if (c == '/' && next == '*') {
                    state = State::BlockComment;
                    ++i;
                } else if (c == '"') {
                    code[i] = '"';
                    state = State::Str;
                } else if (c == '\'') {
                    code[i] = '\'';
                    state = State::Chr;
                } else {
                    code[i] = c;
                }
                break;
              case State::Str:
                if (c == '\\')
                    ++i;
                else if (c == '"') {
                    code[i] = '"';
                    state = State::Code;
                }
                break;
              case State::Chr:
                if (c == '\\')
                    ++i;
                else if (c == '\'') {
                    code[i] = '\'';
                    state = State::Code;
                }
                break;
              case State::BlockComment:
                comment += c;
                if (c == '*' && next == '/') {
                    ++i;
                    state = State::Code;
                }
                break;
              case State::LineComment:
                break; // unreachable within a line
            }
            if (state == State::LineComment)
                break;
        }

        std::vector<Tag> tags;
        parseTags(comment, tags);
        const int lineNo = static_cast<int>(li + 1);
        std::vector<std::size_t> lineSites;
        for (const Tag &tag : tags) {
            if (tag.wholeFile)
                file.allowFile.insert(tag.value);
            else
                lineSites.push_back(file.allowSites.size());
            file.allowSites.push_back(
                {tag.value, lineNo, tag.wholeFile, {}});
        }

        // Every suppression guards the comment's own line...
        for (const std::size_t idx : lineSites) {
            file.allow[li].insert(file.allowSites[idx].rule);
            file.allowSites[idx].applies.push_back(lineNo);
        }

        if (blankCode(code)) {
            // ...and a comment with no code on its line also carries
            // forward to the next code line.
            carrySites.insert(carrySites.end(), lineSites.begin(),
                              lineSites.end());
        } else {
            for (const std::size_t idx : carrySites) {
                file.allow[li].insert(file.allowSites[idx].rule);
                file.allowSites[idx].applies.push_back(lineNo);
            }
            carrySites.clear();
        }
        file.code.push_back(std::move(code));
    }
    return file;
}

SourceFile
loadSourceFile(const std::string &absPath, std::string relPath)
{
    std::ifstream in(absPath, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + absPath);
    std::ostringstream text;
    text << in.rdbuf();
    return makeSourceFile(std::move(relPath), text.str());
}

} // namespace critmem::analysis
