#include "storage/database.h"

namespace mcm {

Result<Relation*> Database::CreateRelation(const std::string& name,
                                           uint32_t arity) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto rel = std::make_unique<Relation>(name, arity, &stats_);
  Relation* ptr = rel.get();
  relations_.emplace(name, std::move(rel));
  return ptr;
}

Result<Relation*> Database::AttachBorrowed(const std::string& name,
                                           std::shared_ptr<const Relation> base) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto rel = std::make_unique<Relation>(
      Relation::Borrow(std::move(base), &stats_));
  Relation* ptr = rel.get();
  relations_.emplace(name, std::move(rel));
  return ptr;
}

Relation* Database::GetOrCreateRelation(const std::string& name,
                                        uint32_t arity) {
  auto it = relations_.find(name);
  if (it != relations_.end()) return it->second.get();
  auto rel = std::make_unique<Relation>(name, arity, &stats_);
  Relation* ptr = rel.get();
  relations_.emplace(name, std::move(rel));
  return ptr;
}

Relation* Database::Find(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Result<Relation*> Database::Get(const std::string& name) {
  Relation* rel = Find(name);
  if (rel == nullptr) {
    return Status::NotFound("relation '" + name + "' not found");
  }
  return rel;
}

bool Database::Drop(const std::string& name) {
  return relations_.erase(name) > 0;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    (void)rel;
    names.push_back(name);
  }
  return names;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    (void)name;
    total += rel->size();
  }
  return total;
}

size_t Database::ApproxBytes() const {
  // Per tuple: the Value payload plus ~32 bytes of hash-set/index overhead
  // (bucket entry + id vectors), a deliberately round estimate.
  constexpr size_t kPerTupleOverhead = 32;
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    (void)name;
    total += rel->size() * (rel->arity() * sizeof(Value) + kPerTupleOverhead);
  }
  return total;
}

}  // namespace mcm
