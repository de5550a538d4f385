// Table 1: infrastructure cost comparison.
//
// A static bill-of-materials table (the paper's own numbers): PolarDraw's
// two-antenna rig halves Tagoram's cost and is ~3.4x cheaper than
// RF-IDraw's. Reproduced verbatim since it is a price list, plus the
// derived cost ratios the introduction quotes.
#include "bench_common.h"

using namespace polardraw;

static void print_table() {
  bench::banner("Table 1", "Infrastructure cost comparison");
  Table t({"Item", "Unit cost ($)", "Quantity", "Total ($)"});
  t.add_row({"Reader (2-port)", "285", "1", "285"});
  t.add_row({"Antenna (Laird pa9-12)", "79", "2", "158"});
  t.add_row({"PolarDraw system", "", "", "443"});
  t.add_row({"Reader (4-port)", "398", "1", "398"});
  t.add_row({"Antenna (Yap-100cp)", "135", "4", "540"});
  t.add_row({"Tagoram system", "", "", "938"});
  t.add_row({"Reader (4-port)", "398", "2", "796"});
  t.add_row({"Antenna (An-900lh)", "89", "8", "712"});
  t.add_row({"RF-IDraw system", "", "", "1508"});
  t.print(std::cout);
  std::cout << "\nDerived: PolarDraw / Tagoram cost = " << fmt(443.0 / 938.0, 2)
            << " (the paper's 'reduces the infrastructure cost by half')\n"
            << "         PolarDraw / RF-IDraw cost = " << fmt(443.0 / 1508.0, 2)
            << "\n\n";
}

int main() {
  const bench::Session session("tab01");
  print_table();
  return session.write_json() ? 0 : 1;
}
