// Test helpers: join shapes beyond XMark Q1–Q20 — multi-way value
// joins with secondary literal or numeric filters, a point lookup, a
// theta join, an existential join and a self-join — phrased against
// the XMark schema. xmark_test runs each against the navigational
// baseline and under the ablation switches, and pins its count of
// recognized joins; threads_differential_test runs each at 1, 2 and 7
// threads.

#ifndef PATHFINDER_TESTS_XMARK_JOIN_SHAPES_H_
#define PATHFINDER_TESTS_XMARK_JOIN_SHAPES_H_

#include <ostream>

namespace pathfinder::xmark {

struct JoinCase {
  const char* name;
  const char* query;
  /// Comparisons the compiler turns into value joins (equi or theta).
  int joins;
};

// Print a case by its name. gtest's default printer dumps the two
// pointers, whose values change with every run, and the test IDs
// that gtest_discover_tests records would change with them.
inline void PrintTo(const JoinCase& c, std::ostream* os) { *os << c.name; }

inline constexpr JoinCase kJoinCases[] = {
    {"ThreeWayValueJoinLiteralOnItem",
     "for $p in /site/people/person "
     "for $a in /site/closed_auctions/closed_auction "
     "for $i in /site/regions/namerica/item "
     "where $a/buyer/@person = $p/@id and $a/itemref/@item = $i/@id "
     "and $i/payment = \"Creditcard\" "
     "return <r>{$p/name/text()}</r>",
     2},
    {"ThreeWayValueJoinLiteralOnPerson",
     "for $a in /site/closed_auctions/closed_auction "
     "for $p in /site/people/person "
     "for $i in /site/regions//item "
     "where $p/@id = $a/buyer/@person and $i/@id = $a/itemref/@item "
     "and $p/profile/@income > 80000 "
     "return <r>{$i/name/text()}</r>",
     2},
    {"PointLookup",
     "for $b in /site/people/person where $b/@id = \"person4\" "
     "return $b/profile/@income",
     1},
    {"TwoWayJoinWithLiteral",
     "for $p in /site/people/person "
     "for $a in /site/closed_auctions/closed_auction "
     "where $a/buyer/@person = $p/@id and $p/@id = \"person1\" "
     "return <r>{$a/price/text()}</r>",
     2},
    {"ThetaJoin",
     "for $p in /site/people/person "
     "for $i in /site/open_auctions/open_auction "
     "where $p/profile/@income > $i/initial return $p/name",
     1},
    {"LiteralBothSidesOfAnd",
     "for $i in /site/regions//item "
     "where $i/payment = \"Creditcard\" and $i/quantity = \"2\" "
     "return $i/name/text()",
     1},
    {"ExistentialJoin",
     "for $p in /site/people/person "
     "where some $w in /site/people/person/watches/watch/@open_auction "
     "satisfies $w = $p/@id return $p/name",
     1},
    {"SelfJoinSameDoc",
     "for $a in /site/closed_auctions/closed_auction "
     "for $b in /site/closed_auctions/closed_auction "
     "where $a/buyer/@person = $b/seller/@person "
     "return <r>{$a/price/text()}</r>",
     1},
    {"ThreeWayValueJoinNumericOnItem",
     "for $p in /site/people/person "
     "for $a in /site/closed_auctions/closed_auction "
     "for $i in /site/regions//item "
     "where $a/buyer/@person = $p/@id and $a/itemref/@item = $i/@id "
     "and $i/quantity > 1 return <r>{$p/name/text()}</r>",
     2},
};

}  // namespace pathfinder::xmark

#endif  // PATHFINDER_TESTS_XMARK_JOIN_SHAPES_H_
