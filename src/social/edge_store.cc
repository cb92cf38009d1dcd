#include "social/edge_store.h"

#include <cassert>

#include "common/cow.h"

namespace s3::social {

namespace {
const std::vector<uint32_t> kNoEdges;
}  // namespace

const char* EdgeLabelName(EdgeLabel label) {
  switch (label) {
    case EdgeLabel::kSocial:
      return "S3:social";
    case EdgeLabel::kPostedBy:
      return "S3:postedBy";
    case EdgeLabel::kPostedByInv:
      return "S3:postedBy-";
    case EdgeLabel::kCommentsOn:
      return "S3:commentsOn";
    case EdgeLabel::kCommentsOnInv:
      return "S3:commentsOn-";
    case EdgeLabel::kHasSubject:
      return "S3:hasSubject";
    case EdgeLabel::kHasSubjectInv:
      return "S3:hasSubject-";
    case EdgeLabel::kHasAuthor:
      return "S3:hasAuthor";
    case EdgeLabel::kHasAuthorInv:
      return "S3:hasAuthor-";
  }
  return "?";
}

EdgeLabel InverseLabel(EdgeLabel label) {
  switch (label) {
    case EdgeLabel::kSocial:
      return EdgeLabel::kSocial;
    case EdgeLabel::kPostedBy:
      return EdgeLabel::kPostedByInv;
    case EdgeLabel::kPostedByInv:
      return EdgeLabel::kPostedBy;
    case EdgeLabel::kCommentsOn:
      return EdgeLabel::kCommentsOnInv;
    case EdgeLabel::kCommentsOnInv:
      return EdgeLabel::kCommentsOn;
    case EdgeLabel::kHasSubject:
      return EdgeLabel::kHasSubjectInv;
    case EdgeLabel::kHasSubjectInv:
      return EdgeLabel::kHasSubject;
    case EdgeLabel::kHasAuthor:
      return EdgeLabel::kHasAuthorInv;
    case EdgeLabel::kHasAuthorInv:
      return EdgeLabel::kHasAuthor;
  }
  return label;
}

void EdgeStore::Add(EntityId source, EntityId target, EdgeLabel label,
                    double weight) {
  assert(weight > 0.0 && weight <= 1.0);
  assert(EntityId::ValidKind(source.packed()));
  // Tail chunk: create a fresh one when full or absent; clone a
  // partially filled one another generation still shares. Chunks are
  // reserved at kChunkSize so appends never reallocate — references
  // into the log stay valid for the chunk's lifetime.
  if (chunks_.empty() || chunks_.back()->size() == kChunkSize) {
    chunks_.push_back(std::make_shared<Chunk>());
    chunks_.back()->reserve(kChunkSize);
  } else if (chunks_.back().use_count() > 1) {
    auto clone = std::make_shared<Chunk>();
    clone->reserve(kChunkSize);
    clone->insert(clone->end(), chunks_.back()->begin(),
                  chunks_.back()->end());
    chunks_.back() = std::move(clone);
  }
  uint32_t idx = static_cast<uint32_t>(n_edges_);
  chunks_.back()->push_back(NetEdge{source, target, label, weight});
  ++n_edges_;

  // Copy-on-write: only the spine chunks and rows a new generation's
  // edges touch are ever cloned.
  Spine& spine = out_[static_cast<size_t>(source.kind())];
  const uint32_t c = source.index() / kRowChunk;
  if (spine.size() <= c) spine.resize(c + 1);
  AdjRow& row = MutableCow(MutableCow(spine[c])[source.index() % kRowChunk]);
  row.edges.push_back(idx);
  row.weight_sum += weight;
}

void EdgeStore::AddWithInverse(EntityId source, EntityId target,
                               EdgeLabel label, double weight) {
  Add(source, target, label, weight);
  Add(target, source, InverseLabel(label), weight);
}

const EdgeStore::AdjRow* EdgeStore::Row(EntityId e) const {
  const size_t kind = static_cast<size_t>(e.kind());
  if (kind >= out_.size()) return nullptr;
  const uint32_t c = e.index() / kRowChunk;
  if (c >= out_[kind].size() || out_[kind][c] == nullptr) return nullptr;
  return (*out_[kind][c])[e.index() % kRowChunk].get();
}

const std::vector<uint32_t>& EdgeStore::OutEdges(EntityId e) const {
  const AdjRow* row = Row(e);
  return row == nullptr ? kNoEdges : row->edges;
}

double EdgeStore::OutWeight(EntityId e) const {
  const AdjRow* row = Row(e);
  return row == nullptr ? 0.0 : row->weight_sum;
}

size_t EdgeStore::CountLabel(EdgeLabel label) const {
  size_t n = 0;
  for (const NetEdge& e : edges()) {
    if (e.label == label) ++n;
  }
  return n;
}

bool EdgeStore::SharesAdjacencyRow(const EdgeStore& other,
                                   EntityId e) const {
  const AdjRow* row = Row(e);
  return row != nullptr && row == other.Row(e);
}

}  // namespace s3::social
