"""Tour of the cancellation partition.

On a singleton board the weighted file numbers equal the rook numbers,
so the weights of the conflicted placements must cancel.  This walks
one four-member class whose weights are +1, +1, +1, -3, shows the
reintroduction identity behind the induction, and verifies the whole
partition for one rook count.

Run:  python demos/cancellation_classes.py
"""

from mlrook import (
    FilePlacement,
    canonical_class,
    class_members,
    make_board,
    reintroduction_sum,
    verify_cover,
    weight,
)

board = make_board((1, 3, 4, 4, 4, 4, 4))
m = 2
seed = FilePlacement(board, ((2, 3), (3, 2), (4, 1), (5, 4), (6, 1), (7, 3)))
print(f"board {board}, m={m}")
print(f"seed placement {seed} has weight {weight(seed, m)}")

cls = canonical_class(seed, m)
print(f"\nits class: anchor level {cls.level},"
      f" fixed cells {FilePlacement(board, cls.fixed_cells)},"
      f" movable columns {list(cls.movable_columns)}")
total = 0
for member in class_members(cls):
    w = weight(member, m)
    total += w
    print(f"  member {member}  weight {w:+d}")
print(f"  class weight sum = {total}")

print("\nwhy moving a single rook is not enough:")
for column in (6, 3):
    fhat = seed.without_column(column)
    t = fhat.level_counts(m).get(cls.level, 0)
    s = reintroduction_sum(fhat, column, cls.level, m)
    print(f"  sweep column {column} alone: sum {s:+d}"
          f"  (= weight(rest) * m * (1 - {t}) = {weight(fhat, m)} * {m} * {1 - t})")
print("neither sweep cancels by itself; the full class does.")

report = verify_cover(board, m, 6)
summary = report.summary_json_dict()
print(f"\nfull check at k=6: {summary['nonrook_placements']} conflicted placements"
      f" in {summary['num_classes']} classes;"
      f" every class sums to zero: {summary['class_sums_zero']};"
      f" grand total {summary['total_weight']}")
