// Structured diagnostics: code + severity + message + source span.
//
// Every static check in the front end (dl::ValidateInto) and the analyzer
// passes (analysis::Analyze) reports through a DiagnosticBag instead of
// returning on the first violation, so tools like mcm-lint can show the
// complete picture of a program in one run. Codes are stable identifiers
// ("E104", "W201", ...) intended for suppression lists and tests; messages
// are free-form prose.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/span.h"
#include "util/status.h"

namespace mcm::dl {

enum class Severity : uint8_t {
  kError,    ///< Program is rejected by the engine.
  kWarning,  ///< Program runs, but something is likely wrong or wasteful.
  kNote,     ///< Informational finding (query class, assumptions made).
};

std::string_view SeverityToString(Severity s);

/// Stable diagnostic codes. The numeric bands mirror the pass structure:
/// 1xx validation errors, 2xx dependency-graph warnings, 3xx binding
/// warnings, 4xx counting-safety warnings, 5xx notes, 6xx cost-model notes.
enum class DiagCode : int {
  // --- validation (errors) -------------------------------------------
  kArityConflict = 101,       ///< predicate used with two different arities
                              ///< or at another arity than it is stored
  kArityExceedsMax = 102,     ///< arity beyond kMaxTupleArity
  kNonGroundFact = 103,       ///< fact with a variable argument
  kUnboundHeadVar = 104,      ///< head variable not positively bound (range
                              ///< restriction)
  kUnboundNegatedVar = 105,   ///< floundering negation
  kUnboundComparisonVar = 106,///< comparison operand not positively bound
  kUnboundAffineBase = 107,   ///< affine term whose base variable is unbound
  kAffineInQuery = 108,       ///< affine term in a query goal

  // --- dependency graph (warnings) -----------------------------------
  kUndefinedPredicate = 201,  ///< body predicate with no rules and no stored
                              ///< relation
  kUnusedPredicate = 202,     ///< defined but never used in a body or query
  kUnreachablePredicate = 203,///< defined but unreachable from any query
  kNegationCycle = 204,       ///< negation through recursion (unstratifiable)

  // --- binding / adornment (warnings) --------------------------------
  kAdornmentFailed = 301,     ///< binding propagation failed for the goal
  kUnboundQuery = 302,        ///< all-free goal: bindings restrict nothing

  // --- counting safety (warnings) ------------------------------------
  kCountingUnsafe = 401,      ///< cyclic magic graph: pure counting diverges

  // --- notes ----------------------------------------------------------
  kQueryClassCsl = 501,       ///< query recognized as (derived) CSL
  kNoEdbStats = 502,          ///< no EDB data: safety verdict is structural
  kAssumedEdb = 503,          ///< body-only predicates assumed to be EDB
  kBindingSummary = 504,      ///< adornment result summary

  // --- cost model (notes, 6xx) ----------------------------------------
  kCostEstimate = 601,        ///< per-method predicted cost (Props 4-7)
  kCostRanking = 602,         ///< cost-ranked method selection summary
  kCostUnknown = 603,         ///< cost parameters not statically derivable
};

/// "E104", "W201", "N501": severity letter + numeric code.
std::string DiagCodeToString(DiagCode code);

/// The severity a code always carries (codes are bound to one severity).
Severity DiagCodeSeverity(DiagCode code);

/// \brief One finding: where, what, and how bad.
struct Diagnostic {
  DiagCode code = DiagCode::kArityConflict;
  Severity severity = Severity::kError;
  Span span;            ///< best-effort; invalid for synthesized programs
  std::string message;

  /// "3:7: error: predicate 'p' ... [E101]" (no filename; callers prefix).
  std::string ToString() const;
};

/// \brief Collects diagnostics across passes; never stops early.
class DiagnosticBag {
 public:
  /// Append a finding; severity is derived from the code.
  void Add(DiagCode code, Span span, std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  size_t size() const { return diags_.size(); }

  size_t error_count() const;
  size_t warning_count() const;
  bool has_errors() const { return error_count() > 0; }

  /// True if some diagnostic carries `code`.
  bool Has(DiagCode code) const;

  /// Stable-sort by source position (unknown spans last, in insertion
  /// order).
  void SortBySpan();

  /// Render all diagnostics, one per line, each prefixed with `filename:`
  /// when non-empty.
  std::string Render(const std::string& filename = "") const;

  /// OK when error-free; otherwise InvalidArgument carrying the first
  /// error's message (and a count of the rest), so existing Status-based
  /// callers keep working.
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace mcm::dl
