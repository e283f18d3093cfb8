#include "db/tpch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string_view>

#include "common/rng.h"
#include "sim/parallel.h"

namespace teleport::db {

namespace {

/// Word list for p_name; "green" appears in roughly 1/17 of part names
/// (TPC-H's '%green%' predicate selects ~5% of parts).
constexpr std::array<std::string_view, 17> kNameWords = {
    "almond", "antique", "aquamarine", "azure",  "beige",  "bisque",
    "black",  "blanched", "blue",      "green",  "coral",  "cornflower",
    "cream",  "cyan",     "dark",      "dodger", "drab"};

/// p_name's width: any three words and two spaces fit.
constexpr uint32_t kPartNameWidth = 32;
static_assert(std::ranges::all_of(kNameWords, [](std::string_view w) {
  return 3 * w.size() + 2 <= kPartNameWidth;
}));

constexpr std::array<std::string_view, 25> kNationNames = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",       "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",        "INDONESIA",
    "IRAN",     "IRAQ",     "JAPAN",   "JORDAN",       "KENYA",
    "MOROCCO",  "MOZAMBIQUE", "PERU",  "CHINA",        "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES"};

ddc::DatasetKey TpchKey(const TpchConfig& c) {
  static_assert(sizeof(TpchConfig) == 3 * sizeof(uint64_t),
                "a TpchConfig field is missing from TpchKey");
  return {"tpch",
          {std::bit_cast<uint64_t>(c.scale_factor), c.lineitem_per_sf,
           c.seed}};
}

/// Names every table and allocates its columns, in the order DrawTables
/// fills them.
void AddTables(ddc::MemorySystem* ms, TpchDatabase& db) {
  const TpchConfig& c = db.config;
  auto table = [](Table& t, const char* name, uint64_t rows) -> Table& {
    t.name = name;
    t.rows = rows;
    return t;
  };
  Table& nation = table(db.nation, "nation", TpchConfig::kNationRows);
  nation.AddColumn(ms, "n_nationkey");
  nation.AddStringColumn(ms, "n_name", 16);
  Table& supplier = table(db.supplier, "supplier", c.SupplierRows());
  for (const char* col : {"s_suppkey", "s_nationkey"}) {
    supplier.AddColumn(ms, col);
  }
  Table& part = table(db.part, "part", c.PartRows());
  part.AddColumn(ms, "p_partkey");
  part.AddStringColumn(ms, "p_name", kPartNameWidth);
  Table& partsupp = table(db.partsupp, "partsupp", c.PartSuppRows());
  for (const char* col : {"ps_partkey", "ps_suppkey", "ps_supplycost"}) {
    partsupp.AddColumn(ms, col);
  }
  Table& customer = table(db.customer, "customer", c.CustomerRows());
  for (const char* col : {"c_custkey", "c_mktsegment"}) {
    customer.AddColumn(ms, col);
  }
  Table& orders = table(db.orders, "orders", c.OrdersRows());
  for (const char* col :
       {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}) {
    orders.AddColumn(ms, col);
  }
  Table& lineitem = table(db.lineitem, "lineitem", c.LineitemRows());
  for (const char* col :
       {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
        "l_extendedprice", "l_discount", "l_shipdate", "l_returnflag"}) {
    lineitem.AddColumn(ms, col);
  }
}

/// Draws every row into the columns AddTables allocated. Every table draws
/// a fixed number of values per row from one stream, so its rows split into
/// chunks that each jump straight to their first draw (sim::RowChunks), and
/// each chunk writes only its own rows. l_shipdate reads o_orderdate, so
/// lineitem's chunks run after the other tables'.
void DrawTables(TpchDatabase& db) {
  // --- nation (no draws) ---------------------------------------------------
  int64_t* n_nationkey = db.nation.Col("n_nationkey").raw();
  StringColumn& n_name = db.nation.StrCol("n_name");
  for (uint64_t i = 0; i < db.nation.rows; ++i) {
    n_nationkey[i] = static_cast<int64_t>(i);
    n_name.RawSet(i, kNationNames[i]);
  }

  // Host pointers are looked up here, before any chunk runs: chunks touch
  // no MemorySystem state.
  int64_t* s_suppkey = db.supplier.Col("s_suppkey").raw();
  int64_t* s_nationkey = db.supplier.Col("s_nationkey").raw();
  int64_t* p_partkey = db.part.Col("p_partkey").raw();
  char* p_name = db.part.StrCol("p_name").raw();
  int64_t* ps_partkey = db.partsupp.Col("ps_partkey").raw();
  int64_t* ps_suppkey = db.partsupp.Col("ps_suppkey").raw();
  int64_t* ps_supplycost = db.partsupp.Col("ps_supplycost").raw();
  int64_t* c_custkey = db.customer.Col("c_custkey").raw();
  int64_t* c_mktsegment = db.customer.Col("c_mktsegment").raw();
  int64_t* o_orderkey = db.orders.Col("o_orderkey").raw();
  int64_t* o_custkey = db.orders.Col("o_custkey").raw();
  int64_t* o_orderdate = db.orders.Col("o_orderdate").raw();
  int64_t* o_shippriority = db.orders.Col("o_shippriority").raw();
  int64_t* l_orderkey = db.lineitem.Col("l_orderkey").raw();
  int64_t* l_partkey = db.lineitem.Col("l_partkey").raw();
  int64_t* l_suppkey = db.lineitem.Col("l_suppkey").raw();
  int64_t* l_quantity = db.lineitem.Col("l_quantity").raw();
  int64_t* l_extendedprice = db.lineitem.Col("l_extendedprice").raw();
  int64_t* l_discount = db.lineitem.Col("l_discount").raw();
  int64_t* l_shipdate = db.lineitem.Col("l_shipdate").raw();
  int64_t* l_returnflag = db.lineitem.Col("l_returnflag").raw();
  const uint64_t suppliers = db.supplier.rows;
  const uint64_t parts = db.part.rows;
  const uint64_t customers = db.customer.rows;
  const uint64_t orders = db.orders.rows;
  const uint64_t lines = db.lineitem.rows;

  // The tables draw in this order, each row its fixed number of values.
  const sim::RowChunks supplier(Rng(db.config.seed), suppliers, 1);
  const sim::RowChunks part(supplier.After(), parts, 3);
  const sim::RowChunks partsupp(part.After(), db.partsupp.rows, 1);
  const sim::RowChunks customer(partsupp.After(), customers, 1);
  const sim::RowChunks order(customer.After(), orders, 2);
  const sim::RowChunks lineitem(order.After(), lines, 7);

  sim::RunGeneratorChunks([&](size_t c) {
    // --- supplier -----------------------------------------------------------
    Rng r = supplier.start(c);
    for (uint64_t i = supplier.begin(c); i < supplier.end(c); ++i) {
      s_suppkey[i] = static_cast<int64_t>(i);
      s_nationkey[i] = static_cast<int64_t>(r.Uniform(25));
    }

    // --- part ---------------------------------------------------------------
    r = part.start(c);
    for (uint64_t i = part.begin(c); i < part.end(c); ++i) {
      p_partkey[i] = static_cast<int64_t>(i);
      char* name = p_name + i * kPartNameWidth;
      size_t len = 0;
      for (int w = 0; w < 3; ++w) {
        if (w) name[len++] = ' ';
        const std::string_view word = kNameWords[r.Uniform(kNameWords.size())];
        std::memcpy(name + len, word.data(), word.size());
        len += word.size();
      }
      std::memset(name + len, 0, kPartNameWidth - len);
    }

    // --- partsupp -----------------------------------------------------------
    // Four suppliers per part, deterministic assignment like TPC-H's
    // (partkey + i*step) % suppliers formula.
    r = partsupp.start(c);
    for (uint64_t i = partsupp.begin(c); i < partsupp.end(c); ++i) {
      const uint64_t pk = i / 4;
      const uint64_t which = i % 4;
      ps_partkey[i] = static_cast<int64_t>(pk);
      ps_suppkey[i] =
          static_cast<int64_t>((pk + which * (suppliers / 4 + 1)) % suppliers);
      ps_supplycost[i] = static_cast<int64_t>(100 + r.Uniform(99900));
    }

    // --- customer -----------------------------------------------------------
    r = customer.start(c);
    for (uint64_t i = customer.begin(c); i < customer.end(c); ++i) {
      c_custkey[i] = static_cast<int64_t>(i);
      c_mktsegment[i] = static_cast<int64_t>(r.Uniform(kNumSegments));
    }

    // --- orders -------------------------------------------------------------
    r = order.start(c);
    for (uint64_t i = order.begin(c); i < order.end(c); ++i) {
      o_orderkey[i] = static_cast<int64_t>(i);  // dense, sorted
      o_custkey[i] = static_cast<int64_t>(r.Uniform(customers));
      // Leave >= 151 days of headroom so every l_shipdate fits the domain.
      o_orderdate[i] = static_cast<int64_t>(r.Uniform(kDateDomainDays - 151));
      o_shippriority[i] = 0;
    }
  });

  // --- lineitem -------------------------------------------------------------
  // Lines are generated order by order, so l_orderkey is sorted — the
  // physical order TPC-H dbgen produces, required by the Q9 merge join.
  sim::RunGeneratorChunks([&](size_t c) {
    Rng r = lineitem.start(c);
    for (uint64_t i = lineitem.begin(c); i < lineitem.end(c); ++i) {
      // Spread lines evenly over orders (average 4 per order), keeping the
      // orderkey sequence non-decreasing.
      const uint64_t ok = i * orders / lines;
      l_orderkey[i] = static_cast<int64_t>(ok);
      const uint64_t pk = r.Uniform(parts);
      l_partkey[i] = static_cast<int64_t>(pk);
      // Pick one of the part's four suppliers so the partsupp join matches.
      const uint64_t which = r.Uniform(4);
      l_suppkey[i] =
          static_cast<int64_t>((pk + which * (suppliers / 4 + 1)) % suppliers);
      l_quantity[i] = static_cast<int64_t>(1 + r.Uniform(50));
      l_extendedprice[i] = static_cast<int64_t>(90000 + r.Uniform(9000000));
      l_discount[i] = static_cast<int64_t>(r.Uniform(11));
      l_shipdate[i] =
          o_orderdate[ok] + static_cast<int64_t>(1 + r.Uniform(150));
      l_returnflag[i] = static_cast<int64_t>(r.Uniform(3));
    }
  });
}

}  // namespace

uint64_t EstimateTpchBytes(const TpchConfig& c) {
  const uint64_t i64 = sizeof(int64_t);
  uint64_t b = 0;
  b += c.LineitemRows() * 8 * i64;
  b += c.OrdersRows() * 4 * i64;
  b += c.CustomerRows() * 2 * i64;
  b += c.PartRows() * (1 * i64 + kPartNameWidth);
  b += c.SupplierRows() * 2 * i64;
  b += c.PartSuppRows() * 3 * i64;
  b += TpchConfig::kNationRows * (1 * i64 + 16);
  return b;
}

std::unique_ptr<TpchDatabase> GenerateTpch(ddc::MemorySystem* ms,
                                           const TpchConfig& config) {
  auto db = std::make_unique<TpchDatabase>();
  db->config = config;
  const bool adopted = ms->space().AdoptDataset(TpchKey(config), nullptr);
  AddTables(ms, *db);
  if (!adopted) {
    DrawTables(*db);
    ms->space().TagDataset({});
  }
  ms->SeedData();
  return db;
}

}  // namespace teleport::db
