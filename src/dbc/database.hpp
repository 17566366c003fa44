// A signal database: the set of message definitions for one vehicle network.
// This is the "design knowledge" input the paper contrasts with protocol-
// only fuzzing (Table I): the targeted generator and the plausibility oracle
// both consume it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbc/message_def.hpp"

namespace acf::dbc {

class Database {
 public:
  Database() = default;

  /// Adds a message definition; replaces any existing one with the same id.
  void add(MessageDef message);

  /// Standard ids (below 2048) resolve through a flat table, one load per
  /// frame; other ids through a hash map.
  const MessageDef* by_id(std::uint32_t id) const noexcept;
  const MessageDef* by_name(std::string_view name) const noexcept;

  const std::vector<MessageDef>& messages() const noexcept { return messages_; }
  std::size_t size() const noexcept { return messages_.size(); }

  /// All defined ids, ascending (used to derive targeted fuzz id sets).
  std::vector<std::uint32_t> ids() const;

 private:
  static constexpr std::uint32_t kStandardIds = 2048;

  std::optional<std::size_t> index_of(std::uint32_t id) const noexcept;

  std::vector<MessageDef> messages_;
  /// Message index + 1 per standard id; 0 means no message.
  std::array<std::uint32_t, kStandardIds> standard_slot_{};
  std::unordered_map<std::uint32_t, std::size_t> other_index_;
};

}  // namespace acf::dbc
