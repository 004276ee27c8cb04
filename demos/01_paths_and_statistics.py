"""Walk through path enumeration and the two statistics.

A path with north runs of prescribed lengths is stored as its rank sequence:
rank = y - x at the start of each run.  Area is the rank sum; bounce weighs
the north runs each vertical leg of the bounce path consumes by the leg's
index, and this script shows those legs for one path.
"""

from qtcatalan import KVector, enumerate_paths, path_stats, refined_catalan

kvec = KVector((2, 1, 2))
print(f"All paths with north runs {kvec}:")
for path in enumerate_paths(kvec):
    stats = path_stats(path)
    print(
        f"  ranks={path.ranks}  east runs={path.east_runs}"
        f"  area={stats.area}  bounce={stats.bounce}"
    )

print()
print("One bounce trace in full:")
path = next(iter(enumerate_paths(KVector((1, 3, 2)))))
stats = path_stats(path)
print(f"  path ranks {path.ranks} of runs {path.kvec}")
print(f"  vertical legs consume {stats.legs} runs -> bounce = {stats.bounce}")

print()
print("Summing q^area t^bounce over all paths gives the refined polynomial:")
for parts in [(1, 1, 1), (1, 2), (2, 1), (1, 2, 1)]:
    print(f"  runs {parts}: {refined_catalan(parts)}")
