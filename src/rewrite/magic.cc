#include "rewrite/magic.h"

#include <unordered_set>

#include "datalog/validate.h"

namespace mcm::rewrite {

namespace {

/// Bound arguments of an adorned atom, per its pattern suffix. The adorned
/// name encodes the pattern after "__"; atoms with no bound position have
/// no magic predicate at all.
Pattern PatternOfAdornedName(const std::string& name) {
  size_t pos = name.rfind("__");
  if (pos == std::string::npos) return {};
  Pattern p = name.substr(pos + 2);
  for (char c : p) {
    if (c != 'b' && c != 'f') return {};
  }
  return p;
}

std::vector<dl::Term> BoundArgs(const dl::Atom& atom, const Pattern& pattern) {
  std::vector<dl::Term> out;
  for (uint32_t i = 0; i < pattern.size() && i < atom.args.size(); ++i) {
    if (pattern[i] == 'b') out.push_back(atom.args[i]);
  }
  return out;
}

}  // namespace

Result<MagicProgram> MagicRewrite(const dl::Program& program,
                                  const dl::Atom& goal,
                                  const MagicOptions& options) {
  MCM_ASSIGN_OR_RETURN(AdornedProgram adorned, Adorn(program, goal));

  // Adorned IDB predicate names.
  std::unordered_set<std::string> idb;
  for (const dl::Rule& r : adorned.program.rules) {
    idb.insert(r.head.predicate);
  }

  MagicProgram out;
  out.adorned_goal = adorned.adorned_goal;

  auto magic_atom = [&](const dl::Atom& atom) -> dl::Atom {
    Pattern p = PatternOfAdornedName(atom.predicate);
    dl::Atom m;
    m.predicate = options.magic_prefix + atom.predicate;
    m.args = BoundArgs(atom, p);
    return m;
  };

  for (const dl::Rule& rule : adorned.program.rules) {
    Pattern head_pattern = PatternOfAdornedName(rule.head.predicate);
    bool head_has_bound = head_pattern.find('b') != Pattern::npos;

    // Modified rule: guard with the magic predicate (if any binding).
    dl::Rule modified = rule;
    if (head_has_bound) {
      modified.body.insert(modified.body.begin(),
                           dl::Literal::Pos(magic_atom(rule.head)));
    }
    out.program.rules.push_back(std::move(modified));

    // Magic rules: one per adorned IDB body atom with bindings. Negated
    // atoms need them too — their (all-bound) adorned versions must be
    // computed for exactly the tuples the negation tests, or the test
    // would succeed vacuously.
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const dl::Literal& lit = rule.body[i];
      if (lit.kind != dl::Literal::Kind::kAtom ||
          idb.count(lit.atom.predicate) == 0) {
        continue;
      }
      Pattern p = PatternOfAdornedName(lit.atom.predicate);
      if (p.find('b') == Pattern::npos) continue;

      dl::Rule magic_rule;
      magic_rule.head = magic_atom(lit.atom);
      if (head_has_bound) {
        magic_rule.body.push_back(dl::Literal::Pos(magic_atom(rule.head)));
      }
      if (lit.negated) {
        // A negated atom's variables may be bound by positive literals
        // anywhere in the body; use all of them (a superset of seeds is
        // harmless — magic sets may over-approximate).
        for (size_t j = 0; j < rule.body.size(); ++j) {
          if (j != i && rule.body[j].IsPositiveAtom()) {
            magic_rule.body.push_back(rule.body[j]);
          }
        }
      } else {
        for (size_t j = 0; j < i; ++j) {
          magic_rule.body.push_back(rule.body[j]);
        }
      }
      out.program.rules.push_back(std::move(magic_rule));
    }
  }

  // Seed: magic of the goal with its constants.
  {
    Pattern gp = PatternOfAdornedName(adorned.adorned_goal.predicate);
    if (gp.find('b') != Pattern::npos) {
      dl::Rule seed;
      seed.head = magic_atom(adorned.adorned_goal);
      out.program.rules.push_back(std::move(seed));
    }
  }

  out.program.queries.push_back(dl::Query{out.adorned_goal});
  // An affine head such as n(X+1) :- n(X) turns into the magic rule
  // magic_n__b(X) :- magic_n__b(X+1), whose head is unbound.
  if (Status valid = dl::Validate(out.program); !valid.ok()) {
    return Status::Unsupported("the rewritten program is invalid: " +
                               valid.message());
  }
  return out;
}

}  // namespace mcm::rewrite
