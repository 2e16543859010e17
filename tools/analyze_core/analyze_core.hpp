// analyze_core — tokenizer + source model behind the in-repo static
// checker, tools/rahooi_analyze (docs/STATIC_ANALYSIS.md).
//
// Deliberately small and dependency-free: C++ source is tokenized with
// comments, string/char/raw-string literals, and preprocessor lines handled
// (capturing #include targets), but there is no preprocessing, no name
// lookup, and "::" is the only multi-character punctuator any client needs.
//
// Suppression directives are captured from comments. A line comment of the
// form
//
//     // rahooi-analyze: allow(rule-name: reason text)
//
// suppresses findings of `rule-name` on the same line or the line directly
// below. The reason is mandatory; an empty reason or an unknown rule name is
// itself reported (rule `allow-syntax`). Suppressions are counted and listed
// in tool output so they stay visible.

#ifndef RAHOOI_TOOLS_ANALYZE_CORE_HPP
#define RAHOOI_TOOLS_ANALYZE_CORE_HPP

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace analyze {

/// `string` is a string literal (raw or not), spelled with its quotes so it
/// never equals a punctuator; char literals are skipped.
enum class TokKind { ident, number, punct, string, eof };

struct Token {
  TokKind kind = TokKind::eof;
  std::string text;
  int line = 1;
};

/// A `// rahooi-analyze: allow(rule: reason)` comment directive.
struct AllowDirective {
  int line = 0;
  std::string rule;    ///< kebab-case rule name as written
  std::string reason;  ///< mandatory justification text (may be empty —
                       ///< that is an allow-syntax violation, not a parse
                       ///< failure)
  bool used = false;   ///< set by the consumer when a finding matched
};

struct FileSource {
  std::vector<Token> tokens;
  /// Ordered #include targets (quotes/brackets stripped) with line numbers.
  std::vector<std::pair<std::string, int>> includes;
  /// Suppression directives found in comments, in line order.
  std::vector<AllowDirective> allows;
};

/// Tokenizes C++ source: skips comments, char literals and preprocessor
/// lines (capturing #include targets and allow directives).
FileSource tokenize(const std::string& src);

/// Index of the first token of the qualified-id chain ending at `i`
/// (e.g. for `prof :: TraceSpan` with i at TraceSpan, returns the index of
/// `prof`; handles a leading global `::` too).
std::size_t chain_start(const std::vector<Token>& t, std::size_t i);

/// Index of the token after the `)` matching the `(` at `open` (or
/// tokens.size() when unbalanced).
std::size_t after_matching_paren(const std::vector<Token>& t,
                                 std::size_t open);

/// The rahooi error taxonomy (comm/errors.hpp, common/contracts.hpp,
/// core/checkpoint.hpp, fault/fault.hpp).
const std::set<std::string>& taxonomy_types();

/// The comm::Comm byte-moving collective surface. Every entry must issue an
/// identical schedule on every rank (DESIGN.md §10). Point-to-point
/// send/recv are deliberately absent.
const std::set<std::string>& collective_methods();

/// RAII guard types whose discard-as-temporary (or discard of a returned
/// value) is a bug: the guarded region collapses to nothing.
const std::set<std::string>& guard_types();

/// Finds an unused allow directive for `rule` covering `line` (the
/// directive's own line or the line directly above). Marks it used and
/// returns its index, or npos.
std::size_t match_allow(std::vector<AllowDirective>& allows,
                        std::string_view rule, int line);

bool read_file(const std::filesystem::path& p, std::string& out);

/// JSON string escaping for the machine-readable findings output.
std::string json_escape(std::string_view s);

}  // namespace analyze

#endif  // RAHOOI_TOOLS_ANALYZE_CORE_HPP
