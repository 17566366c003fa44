#include "dbc/database.hpp"

#include <algorithm>

namespace acf::dbc {

std::optional<std::size_t> Database::index_of(std::uint32_t id) const noexcept {
  if (id < kStandardIds) {
    const std::uint32_t slot = standard_slot_[id];
    if (slot == 0) return std::nullopt;
    return slot - 1;
  }
  const auto it = other_index_.find(id);
  if (it == other_index_.end()) return std::nullopt;
  return it->second;
}

void Database::add(MessageDef message) {
  if (const auto index = index_of(message.id)) {
    messages_[*index] = std::move(message);
    return;
  }
  if (message.id < kStandardIds) {
    standard_slot_[message.id] = static_cast<std::uint32_t>(messages_.size() + 1);
  } else {
    other_index_.emplace(message.id, messages_.size());
  }
  messages_.push_back(std::move(message));
}

const MessageDef* Database::by_id(std::uint32_t id) const noexcept {
  const auto index = index_of(id);
  return index ? &messages_[*index] : nullptr;
}

const MessageDef* Database::by_name(std::string_view name) const noexcept {
  for (const auto& message : messages_) {
    if (message.name == name) return &message;
  }
  return nullptr;
}

std::vector<std::uint32_t> Database::ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(messages_.size());
  for (const auto& message : messages_) out.push_back(message.id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace acf::dbc
