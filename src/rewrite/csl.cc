#include "rewrite/csl.h"

#include <optional>

#include "rewrite/strongly_linear.h"

namespace mcm::rewrite {

std::string CslQuery::ToString() const {
  return "CSL{P=" + p + " E=" + e + " L=" + l + " R=" + r +
         " a=" + source.ToString() + "}";
}

Value ResolveSource(const CslQuery& q, Database* db) {
  if (q.source.kind == dl::Term::Kind::kInt) return q.source.value;
  return db->symbols().Intern(q.source.name);
}

Result<ReverseCsl> RecognizeReverseCsl(const dl::Program& program,
                                       const std::string& swapped_e_name) {
  if (program.queries.size() != 1) {
    return Status::Unsupported("reverse CSL requires exactly one query");
  }
  const dl::Query& query = program.queries[0];
  if (query.goal.arity() != 2 || !query.goal.args[0].IsVariable() ||
      !query.goal.args[1].IsConstant()) {
    return Status::Unsupported(
        "reverse CSL query goal must be P(X, b) with free X and constant b");
  }
  // Recognize the forward form by mirroring the query goal, then mirror
  // the recognized signature.
  dl::Program forward = program;
  forward.queries[0].goal.args = {query.goal.args[1], query.goal.args[0]};
  MCM_ASSIGN_OR_RETURN(StronglyLinearQuery slq,
                       RecognizeStronglyLinear(forward));
  std::optional<CslQuery> fwd = slq.Canonical();
  if (!fwd.has_value()) {
    return Status::Unsupported(
        "L, E and R must each be one binary atom in canonical order: " +
        slq.ToString());
  }

  ReverseCsl out;
  out.original_e = fwd->e;
  out.csl.p = fwd->p;
  out.csl.l = fwd->r;  // the R relation propagates the binding now
  out.csl.r = fwd->l;
  out.csl.e = swapped_e_name;
  out.csl.source = query.goal.args[1];
  out.csl.answer_var = query.goal.args[0].name;
  return out;
}

Status MaterializeSwappedE(Database* db, const std::string& e_name,
                           const std::string& swapped_name) {
  Relation* e = db->Find(e_name);
  if (e == nullptr) {
    return Status::NotFound("relation '" + e_name + "' not found");
  }
  if (e->arity() != 2) {
    return Status::InvalidArgument("E must be binary to swap");
  }
  Relation* swapped = db->GetOrCreateRelation(swapped_name, 2);
  swapped->Clear();
  for (const Tuple& t : e->TuplesUnchecked()) {
    swapped->Insert2(t[1], t[0]);
  }
  return Status::OK();
}

}  // namespace mcm::rewrite
