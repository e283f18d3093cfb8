#ifndef TELEPORT_DB_COLUMN_H_
#define TELEPORT_DB_COLUMN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ddc/memory_system.h"

namespace teleport::db {

/// A fixed-width int64 column stored in the simulated address space —
/// the moral equivalent of a MonetDB BAT tail. All timed access goes
/// through an ExecutionContext; raw host access is only for data
/// generation (before SeedData stages the buffer pool). Its creator writes
/// every row before anything reads the column: the region is allocated
/// for overwrite, not zero-filled.
class Column {
 public:
  Column(ddc::MemorySystem* ms, std::string name, uint64_t rows)
      : ms_(ms),
        name_(std::move(name)),
        rows_(rows),
        addr_(ms->space().AllocForOverwrite(rows * sizeof(int64_t), name_)) {}

  const std::string& name() const { return name_; }
  uint64_t rows() const { return rows_; }
  ddc::VAddr addr() const { return addr_; }
  uint64_t bytes() const { return rows_ * sizeof(int64_t); }

  /// Timed element read through a caller-held cursor (operator inner loops
  /// walking this column keep its page pinned across iterations).
  int64_t Get(ddc::Cursor& cur, uint64_t row) const {
    return cur.Load<int64_t>(addr_ + row * sizeof(int64_t));
  }

  /// Untimed host pointer for data generation. Once the generator has
  /// tagged its dataset, a write through it faults (DESIGN.md §5).
  int64_t* raw() {
    return static_cast<int64_t*>(ms_->space().HostPtr(addr_, bytes()));
  }
  const int64_t* raw() const {
    return static_cast<const int64_t*>(ms_->space().HostPtr(addr_, bytes()));
  }

 private:
  ddc::MemorySystem* ms_;
  std::string name_;
  uint64_t rows_;
  ddc::VAddr addr_;
};

/// A fixed-width character column (e.g. p_name): `width` bytes per row,
/// zero-padded. Substring scans read the real bytes through the DDC. Like
/// a Column, its creator sets every row (RawSet writes the padding too).
class StringColumn {
 public:
  StringColumn(ddc::MemorySystem* ms, std::string name, uint64_t rows,
               uint32_t width)
      : ms_(ms),
        name_(std::move(name)),
        rows_(rows),
        width_(width),
        addr_(ms->space().AllocForOverwrite(rows * width, name_)) {}

  const std::string& name() const { return name_; }
  uint64_t rows() const { return rows_; }
  uint32_t width() const { return width_; }
  ddc::VAddr addr() const { return addr_; }
  uint64_t bytes() const { return rows_ * width_; }

  /// Timed row read through a caller-held cursor; the returned view is
  /// valid until the next allocation.
  std::string_view Get(ddc::Cursor& cur, uint64_t row) const {
    const void* p = cur.ReadRange(addr_ + row * width_, width_);
    return std::string_view(static_cast<const char*>(p), width_);
  }

  /// Untimed host pointer for data generation: row r is the width() bytes
  /// from raw() + r * width(). Once the generator has tagged its dataset,
  /// a write through it faults (DESIGN.md §5).
  char* raw() {
    return static_cast<char*>(ms_->space().HostPtr(addr_, bytes()));
  }

  /// Untimed host write for data generation (truncates/pads to width).
  void RawSet(uint64_t row, std::string_view s) {
    char* p = static_cast<char*>(
        ms_->space().HostPtr(addr_ + row * width_, width_));
    const size_t n = s.size() < width_ ? s.size() : width_;
    for (size_t i = 0; i < n; ++i) p[i] = s[i];
    for (size_t i = n; i < width_; ++i) p[i] = '\0';
  }

 private:
  ddc::MemorySystem* ms_;
  std::string name_;
  uint64_t rows_;
  uint32_t width_;
  ddc::VAddr addr_;
};

/// A named collection of equally-long columns.
struct Table {
  std::string name;
  uint64_t rows = 0;
  std::map<std::string, std::unique_ptr<Column>> columns;
  std::map<std::string, std::unique_ptr<StringColumn>> string_columns;

  Column& Col(const std::string& col) const {
    auto it = columns.find(col);
    TELEPORT_CHECK(it != columns.end())
        << "no column '" << col << "' in table '" << name << "'";
    return *it->second;
  }
  StringColumn& StrCol(const std::string& col) const {
    auto it = string_columns.find(col);
    TELEPORT_CHECK(it != string_columns.end())
        << "no string column '" << col << "' in table '" << name << "'";
    return *it->second;
  }

  Column& AddColumn(ddc::MemorySystem* ms, const std::string& col) {
    auto c = std::make_unique<Column>(ms, name + "." + col, rows);
    Column& ref = *c;
    columns.emplace(col, std::move(c));
    return ref;
  }
  StringColumn& AddStringColumn(ddc::MemorySystem* ms, const std::string& col,
                                uint32_t width) {
    auto c =
        std::make_unique<StringColumn>(ms, name + "." + col, rows, width);
    StringColumn& ref = *c;
    string_columns.emplace(col, std::move(c));
    return ref;
  }

  /// Total bytes across all columns (working-set sizing).
  uint64_t TotalBytes() const {
    uint64_t b = 0;
    for (const auto& [k, c] : columns) b += c->bytes();
    for (const auto& [k, c] : string_columns) b += c->bytes();
    return b;
  }
};

}  // namespace teleport::db

#endif  // TELEPORT_DB_COLUMN_H_
