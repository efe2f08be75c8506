import pytest

from ridematch.model import (ASSIGNED, DROPOFF, EXPIRED, ONBOARD, PENDING,
                             PICKUP, SERVED, Stop, Vehicle, make_request,
                             validate_tour)

# a deadline for stops in tests of tour structure, which ignores deadlines
DUE = 600


class TestWindows:
    def test_derived_deadlines(self, line_net):
        # direct 0->3 is 180 s
        req = make_request(1, 100, 0, 3, 300, line_net)
        assert req.t_r == 100
        assert req.q_r == 400
        assert req.l_r == 580
        assert req.direct_time_s == 180
        assert req.f_r == 300
        assert req.status == PENDING

    def test_zero_flexibility(self, line_net):
        req = make_request(1, 50, 1, 2, 0, line_net)
        assert req.q_r == 50
        assert req.l_r == 110

    def test_negative_flexibility_rejected(self, line_net):
        with pytest.raises(ValueError, match="non-negative"):
            make_request(1, 0, 0, 3, -1, line_net)

    def test_unreachable_pair_rejected(self):
        from ridematch.network import Link, RoadNetwork
        net = RoadNetwork([0, 1], [Link(0, 1, 100.0, 10)])
        with pytest.raises(ValueError, match="no route"):
            make_request(1, 0, 1, 0, 60, net)


class TestStatus:
    def test_full_lifecycle(self, line_net):
        req = make_request(1, 0, 0, 2, 60, line_net)
        req.set_status(ASSIGNED)
        req.set_status(ONBOARD)
        req.set_status(SERVED)
        assert req.status == SERVED

    def test_expiry_only_from_pending(self, line_net):
        req = make_request(1, 0, 0, 2, 60, line_net)
        req.set_status(EXPIRED)
        assert req.status == EXPIRED
        req2 = make_request(2, 0, 0, 2, 60, line_net)
        req2.set_status(ASSIGNED)
        with pytest.raises(ValueError, match="illegal move"):
            req2.set_status(EXPIRED)

    @pytest.mark.parametrize("first,second", [
        (None, ONBOARD), (None, SERVED),
        (ASSIGNED, SERVED), (ASSIGNED, ASSIGNED),
    ])
    def test_illegal_jumps(self, line_net, first, second):
        req = make_request(1, 0, 0, 2, 60, line_net)
        if first:
            req.set_status(first)
        with pytest.raises(ValueError, match="illegal move"):
            req.set_status(second)

    def test_terminal_states_frozen(self, line_net):
        req = make_request(1, 0, 0, 2, 60, line_net)
        req.set_status(ASSIGNED)
        req.set_status(ONBOARD)
        req.set_status(SERVED)
        with pytest.raises(ValueError):
            req.set_status(ASSIGNED)


class TestVehicle:
    def test_capacity_accounting(self):
        veh = Vehicle(id=0, capacity=4, location=0)
        assert not veh.tour
        assert veh.available_capacity == 4
        # riders 1 and 2 aboard, rider 3 still to be picked up
        veh.onboard = {1, 2}
        veh.tour = (Stop(DROPOFF, 1, 2, DUE), Stop(PICKUP, 3, 1, DUE),
                    Stop(DROPOFF, 2, 3, DUE), Stop(DROPOFF, 3, 4, DUE))
        validate_tour(veh.tour, veh.onboard)
        assert veh.occupants == 3
        assert veh.available_capacity == 1

    def test_idle_tracks_tour(self):
        veh = Vehicle(id=0, capacity=4, location=0,
                      tour=(Stop(DROPOFF, 1, 3, DUE),), onboard={1})
        assert veh.tour and veh.occupants == 1
        # the last dropoff empties the tour and frees every seat
        veh.tour, veh.onboard = (), set()
        assert veh.occupants == 0 and veh.available_capacity == 4


class TestValidateTour:
    def test_accepts_pair_and_onboard_dropoff(self):
        tour = (Stop(DROPOFF, 9, 2, DUE), Stop(PICKUP, 1, 0, DUE),
                Stop(DROPOFF, 1, 3, DUE))
        validate_tour(tour, onboard={9})

    def test_rejects_dropoff_before_pickup(self):
        tour = (Stop(DROPOFF, 1, 3, DUE), Stop(PICKUP, 1, 0, DUE))
        with pytest.raises(ValueError, match="before pickup"):
            validate_tour(tour, onboard=set())

    def test_rejects_double_pickup(self):
        tour = (Stop(PICKUP, 1, 0, DUE), Stop(PICKUP, 1, 2, DUE),
                Stop(DROPOFF, 1, 3, DUE))
        with pytest.raises(ValueError, match="twice"):
            validate_tour(tour, onboard=set())

    def test_rejects_pickup_of_onboard_rider(self):
        tour = (Stop(PICKUP, 1, 0, DUE), Stop(DROPOFF, 1, 3, DUE))
        with pytest.raises(ValueError, match="twice"):
            validate_tour(tour, onboard={1})

    def test_rejects_missing_dropoff(self):
        with pytest.raises(ValueError, match="never dropped"):
            validate_tour((Stop(PICKUP, 1, 0, DUE),), onboard=set())
        with pytest.raises(ValueError, match="without a dropoff"):
            validate_tour((), onboard={4})
