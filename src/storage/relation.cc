#include "storage/relation.h"

#include <cassert>
#include <utility>

namespace mcm {

const std::vector<uint32_t> Relation::kEmptyPostings{};

namespace {

std::string EncodeKeyCols(const IndexKey& cols) {
  std::string s;
  s.reserve(cols.size() * 3);
  for (uint32_t c : cols) {
    s += std::to_string(c);
    s += ',';
  }
  return s;
}

}  // namespace

Relation Relation::Borrow(std::shared_ptr<const Relation> base,
                          AccessStats* stats) {
  assert(base != nullptr);
  // Collapse borrow-of-borrow to the root owner so the chain never grows
  // and store() stays one hop.
  while (base->base_ != nullptr) base = base->base_;
  Relation r(base->name_, base->arity_, stats);
  r.base_ = std::move(base);
  return r;
}

void Relation::Materialize() {
  assert(base_ != nullptr);
  // Same tuples, same ids: indexes built over the shared storage remain
  // valid, and the base's dedup set is exactly the one a copy would have
  // rebuilt tuple by tuple.
  tuples_ = base_->tuples_;
  dedup_ = base_->dedup_;
  base_.reset();
}

bool Relation::Insert(const Tuple& t) {
  assert(t.arity() == arity_ && "tuple arity mismatch");
  if (stats_ != nullptr) stats_->insert_attempts++;
  if (base_ != nullptr) {
    // Cheap pre-check against the frozen base before paying for the
    // copy-on-write: re-inserting an existing tuple (the common no-op
    // during fixpoint rounds) must not materialize.
    if (base_->dedup_.count(t) > 0) return false;
    Materialize();
  }
  auto [it, inserted] = dedup_.insert(t);
  (void)it;
  if (!inserted) return false;
  uint32_t id = static_cast<uint32_t>(tuples_.size());
  tuples_.push_back(t);
  if (stats_ != nullptr) stats_->tuples_inserted++;
  // Maintain existing indexes incrementally (relations only ever grow
  // during fixpoint computation, so indexes never need rebuilds).
  for (auto& [enc, index] : indexes_) {
    index.buckets[MakeKey(index.key_cols, t)].push_back(id);
    (void)enc;
  }
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  if (stats_ != nullptr) stats_->probes++;
  // A borrower must not touch the shared base's dedup set (frozen, and the
  // set was built by the base's own inserts) — but its dedup contents are
  // plain immutable data, safe to read from any number of borrowers.
  bool found = (base_ != nullptr ? base_->dedup_ : dedup_).count(t) > 0;
  if (found) CountRead(1);
  return found;
}

const Tuple& Relation::Get(size_t id) const {
  CountRead(1);
  return store().at(id);
}

std::vector<Tuple> Relation::Scan() const {
  if (stats_ != nullptr) stats_->scans++;
  CountRead(store().size());
  return store();
}

Tuple Relation::MakeKey(const IndexKey& cols, const Tuple& t) const {
  Tuple key(static_cast<uint32_t>(cols.size()));
  for (uint32_t i = 0; i < cols.size(); ++i) {
    key[i] = t[cols[i]];
  }
  return key;
}

Relation::Index& Relation::GetOrBuildIndex(const IndexKey& cols) const {
  std::string enc = EncodeKeyCols(cols);
  auto it = indexes_.find(enc);
  if (it != indexes_.end()) return it->second;
  Index& index = indexes_[enc];
  index.key_cols = cols;
  const std::vector<Tuple>& tuples = store();
  for (uint32_t id = 0; id < tuples.size(); ++id) {
    index.buckets[MakeKey(cols, tuples[id])].push_back(id);
  }
  return index;
}

const std::vector<uint32_t>& Relation::PostingsUnchecked(
    const IndexKey& key_cols, const std::vector<Value>& key_vals) const {
  assert(key_cols.size() == key_vals.size());
  Index& index = GetOrBuildIndex(key_cols);
  Tuple key(static_cast<uint32_t>(key_vals.size()));
  for (uint32_t i = 0; i < key_vals.size(); ++i) key[i] = key_vals[i];
  auto it = index.buckets.find(key);
  return it == index.buckets.end() ? kEmptyPostings : it->second;
}

const std::vector<uint32_t>& Relation::Probe(
    const IndexKey& key_cols, const std::vector<Value>& key_vals) const {
  if (stats_ != nullptr) stats_->probes++;
  const std::vector<uint32_t>& ids = PostingsUnchecked(key_cols, key_vals);
  CountRead(ids.size());
  return ids;
}

void Relation::Clear() {
  base_.reset();
  tuples_.clear();
  dedup_.clear();
  indexes_.clear();
}

std::vector<Value> Relation::DistinctColumn(uint32_t col) const {
  std::unordered_set<Value> seen;
  std::vector<Value> out;
  for (const Tuple& t : store()) {
    if (seen.insert(t[col]).second) out.push_back(t[col]);
  }
  return out;
}

std::string Relation::ToString(size_t limit) const {
  std::string out = name_ + "[" + std::to_string(arity_) + "] {";
  size_t shown = 0;
  for (const Tuple& t : store()) {
    if (shown >= limit) {
      out += " ...";
      break;
    }
    out += " " + t.ToString();
    ++shown;
  }
  out += " } (" + std::to_string(store().size()) + " tuples)";
  return out;
}

}  // namespace mcm
