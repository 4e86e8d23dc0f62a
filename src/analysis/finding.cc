#include "analysis/finding.hh"

#include <tuple>

namespace critmem::analysis
{

const char *
toString(Severity severity)
{
    switch (severity) {
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

std::ostream &
operator<<(std::ostream &os, const Finding &finding)
{
    if (!finding.path.empty()) {
        os << finding.path;
        if (finding.line > 0)
            os << ':' << finding.line;
        os << ": ";
    }
    os << toString(finding.severity) << ": [" << finding.rule << "] "
       << finding.message;
    return os;
}

bool
findingLess(const Finding &a, const Finding &b)
{
    return std::tie(a.path, a.line, a.rule, a.message) <
        std::tie(b.path, b.line, b.rule, b.message);
}

} // namespace critmem::analysis
