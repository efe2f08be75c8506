"""Price a shared ride step by step, then merge two vehicles' plans.

Every candidate plan is priced the same way: the cost of a tour is the
time from now until the vehicle finishes its last stop, provided every
rider still gets picked up within their flexibility window and dropped
off by their deadline.  This script walks one vehicle through taking
two compatible riders, then shows a second, barely-used vehicle handing
its work over to the first.
"""

from ridematch import (PICKUP, Vehicle, donor_eligible, grid_network,
                       make_request, path_cost, split_merge_cost, split_tour)


def fmt(tour):
    return " ".join(f"{'P' if s.kind == PICKUP else 'D'}{s.request_id}@{s.node}"
                    for s in tour)


net = grid_network(6, 6)  # nodes 0..35 row-major, 40 s per link
fresh = set()  # ids of the riders committed in this update


def announce(rid, origin, destination, flexibility_s=420):
    req = make_request(rid, 0, origin, destination, flexibility_s, net)
    print(f"request {rid}: {origin} to {destination}, direct "
          f"{req.direct_time_s} s, pickup by t={req.q_r}, "
          f"dropoff by t={req.l_r}")
    return req


print("--- step 1: one vehicle absorbs two riders ---")
cab = Vehicle(id=0, capacity=4, location=0)
r1 = announce(1, origin=2, destination=4)
plan = path_cost(net, 0, cab, r1)
print(f"cab 0 takes rider 1 alone: cost {plan.cost} s, tour {fmt(plan.tour)}")

# bookkeeping the engine does on commit
cab.tour = plan.tour
fresh.add(r1.id)

r2 = announce(2, origin=3, destination=5)
plan = path_cost(net, 0, cab, r2)
print(f"cab 0 adds rider 2 en route: cost {plan.cost} s, "
      f"tour {fmt(plan.tour)}")
cab.tour = plan.tour
fresh.add(r2.id)

print("\n--- step 2: an idle-but-assigned vehicle donates its work ---")
donor = Vehicle(id=1, capacity=4, location=1)
r3 = announce(3, origin=1, destination=5)
plan = path_cost(net, 0, donor, r3)
donor.tour = plan.tour
fresh.add(r3.id)
print(f"cab 1 was just assigned rider 3: tour {fmt(donor.tour)}")
print(f"cab 1 may donate (nothing aboard, no older promises): "
      f"{donor_eligible(donor, fresh)}")

part1, part2 = split_tour(donor.tour)
print(f"donor tour splits into [{fmt(part1)}] + [{fmt(part2)}]")

merged = split_merge_cost(net, 0, donor, cab)
print(f"merge into cab 0: cost {merged.cost} s, tour {fmt(merged.tour)}")
print("cab 0 now covers all three riders and cab 1 is free again")
