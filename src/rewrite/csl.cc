#include "rewrite/csl.h"

namespace mcm::rewrite {

std::string CslQuery::ToString() const {
  return "CSL{P=" + p + " E=" + e + " L=" + l + " R=" + r +
         " a=" + source.ToString() + "}";
}

Value ResolveSource(const CslQuery& q, Database* db) {
  if (q.source.kind == dl::Term::Kind::kInt) return q.source.value;
  return db->symbols().Intern(q.source.name);
}

}  // namespace mcm::rewrite
