"""The five solver kinds, run as agents against the proxy objective.

``SOLVER_KINDS`` gives each kind its class and step; ``solver_loop`` has
one driver per class.  Population methods (MH: GA, PPA, PSO) step one
generation at a time; direct-search methods (DS: SD, CS) ``descend`` from
one start after another.  No solver sees the model: every candidate goes
through ``proxy_objective``, which routes it to the scheduler and waits on
a reply future.  Each kind absorbs the solutions the scheduler broadcasts
when sharing is on in its own way:

* GA/PPA append the shared solution to the population before a step,
* PSO replaces its worst member,
* SD/CS push the shared point onto their stack of pending starts.

Operator constants (crossover rate, mutation scale, inertia, ...) are plain
textbook defaults; nothing here tries to be best in class.
"""

from __future__ import annotations

import asyncio
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from coopt.core import Domain, Evaluation, dominates, freeze_point, pareto_key
from coopt.messaging import Mailbox, Message, MessageKind
from coopt.scheduler import P_MAX, EvaluationRequest, RunRecord

CROSSOVER_RATE = 0.9
MUTATION_SIGMA_FRACTION = 0.1
PSO_INERTIA = 0.7
PSO_COGNITIVE = 1.5
PSO_SOCIAL = 1.5
PPA_MAX_RUNNERS = 5
LINE_SEARCH_MAX_HALVINGS = 20
DESCENT_MAX_ITERATIONS = 50
DESCENT_STEP_TOLERANCE = 1e-8
GRADIENT_STEP = 1e-6
# Exact-penalty weight for the direct-search scalar objective.  It must
# exceed the constraint's multiplier at the optimum for the penalized
# minimum to stay feasible, yet remain small enough that a descent step
# trading a slight boundary crossing for tangential progress is accepted
# (a huge weight freezes steepest descent at the constraint boundary).
INFEASIBILITY_PENALTY = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one solver instance.

    ``size_param`` is the population size for GA/PSO and the propagation
    count for PPA; ``weight`` is the scalarizing weight used only by SD/CS
    on bi-objective problems.
    """

    kind: str
    size_param: int = 1
    priority: int = 1
    weight: float = 0.5
    instance_label: str = ""

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"kind {self.kind!r} is not a solver kind")
        if self.size_param < 1:
            raise ValueError("size_param must be >= 1")
        if not 1 <= self.priority <= P_MAX:
            raise ValueError(f"priority must lie in [1, {P_MAX}]")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")

    @property
    def solver_class(self) -> str:
        return SOLVER_KINDS[self.kind][0]

    @property
    def label(self) -> str:
        return self.instance_label or self.kind.lower()


async def proxy_objective(point: np.ndarray, solver_id: str,
                          scheduler_inbox: Mailbox,
                          priority: int = 1) -> Evaluation:
    """Have the scheduler evaluate one point; block until the result returns.

    A closed scheduler inbox, or a refused request's future, raises
    ``MailboxClosed``: the run is over.
    """
    reply = asyncio.get_running_loop().create_future()
    request = EvaluationRequest(freeze_point(point), reply, solver_id, priority)
    await scheduler_inbox.put(
        Message(MessageKind.EVALUATEPOINT, solver_id, request))
    return await reply


# ------------------------------------------------------------------ fitness

def assign_fitness(members: list[Evaluation]) -> np.ndarray:
    """Rank-based fitness in (0, 1): fitness = (N - rank + 1) / (N + 1).

    Members are ranked by non-dominated sorting layers, arrival order
    within a layer.  With one objective a layer is one distinct objective
    value (feasible) or constraint measure (infeasible), so the ranking is
    feasible by objective, then infeasible by constraint measure.  Any
    other objective count than 1 or 2 raises ValueError.
    """
    if not members:
        raise ValueError("empty population")
    n = len(members)
    fitness = np.empty(n)
    for rank, i in enumerate(_layer_order(members), start=1):
        fitness[i] = _rank_fitness(rank, n)
    return fitness


def _rank_fitness(rank: int, n: int) -> float:
    """Falls strictly with rank, so ``_layer_order`` is by falling fitness."""
    return (n - rank + 1) / (n + 1)


def _layer_order(members: list[Evaluation]) -> list[int]:
    """Member indices layer by layer, arrival order within a layer.

    Feasible members are placed in ``pareto_key`` order, each into the
    first layer whose last member does not dominate it (Jensen, IEEE TEC
    2003): the layers' last keys ``(z2, z1)`` stay sorted, so a bisection
    finds it, in O(n log n) overall.  A one-objective key ``(z, z)`` gives
    one layer per distinct z, in ascending order.  Every feasible layer
    precedes the infeasible members, which form one layer per distinct
    constraint measure, smallest first.
    """
    keys = [pareto_key(m) for m in members]
    feasible = [i for i, m in enumerate(members) if m.feasible]
    infeasible = [i for i, m in enumerate(members) if not m.feasible]
    layer = {}
    lasts: list[tuple[float, float]] = []
    for i in sorted(feasible, key=keys.__getitem__):
        z1, z2 = keys[i]
        k = bisect_left(lasts, (z2, z1))
        if k == len(lasts):
            lasts.append((z2, z1))
        else:
            lasts[k] = (z2, z1)
        layer[i] = k
    feasible.sort(key=layer.__getitem__)
    infeasible.sort(key=lambda i: members[i].constraint)
    return feasible + infeasible


# ------------------------------------------------------------- MH steppers

async def ga_step(members: list[Evaluation], cfg: SolverConfig,
                  domain: Domain, rng: np.random.Generator,
                  evaluate, injected: list[Evaluation]) -> list[Evaluation]:
    """One generation: tournament selection, arithmetic crossover, mutation.

    Shared solutions join the parent pool first; the best member survives
    unchanged (elitism); output size is always ``cfg.size_param``.  Every
    generation evaluates at least one child: at size 1 the child replaces
    the elite only if it dominates it.
    """
    pool = members + injected
    fitness = assign_fitness(pool)
    elite = pool[int(fitness.argmax())]
    n = domain.size
    sigma = MUTATION_SIGMA_FRACTION * domain.ranges
    fitness_values = fitness.tolist()
    children: list[Evaluation] = [elite]
    while len(children) < max(cfg.size_param, 2):
        p1 = _tournament(pool, fitness_values, rng)
        p2 = _tournament(pool, fitness_values, rng)
        if rng.random() < CROSSOVER_RATE:
            alpha = rng.random()
            child = alpha * p1.point + (1.0 - alpha) * p2.point
        else:
            child = p1.point
        mutate = rng.random(n) < (1.0 / n)
        noise = _mutation_noise(sigma, rng)
        child = domain.clip(np.where(mutate, child + noise, child))
        children.append(await evaluate(child))
    if cfg.size_param == 1:
        return [children[1] if dominates(children[1], elite) else elite]
    return children


def _mutation_noise(sigma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``rng.normal(0.0, sigma)``, bit for bit, at a quarter of its cost.

    numpy computes each normal draw as ``loc + scale * standard_normal``, one
    draw per element in order; with array arguments it also broadcasts and
    checks them in Python, which is most of its cost on short vectors.  The
    ``0.0 +`` turns a -0.0 product into +0.0, as numpy's ``loc +`` does.
    """
    return 0.0 + sigma * rng.standard_normal(sigma.size)


def _runner_offset(low: np.ndarray, span: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """``rng.uniform(low, high)`` with ``span = high - low``, bit for bit.

    numpy computes each uniform draw as ``low + (high - low) * random``; the
    span is computed once per parent here, not once per runner.
    """
    return low + span * rng.random(low.size)


def _tournament(pool, fitness: list[float], rng) -> Evaluation:
    """Binary tournament; ties go to the first pick.

    Two scalar draws read the same bits as one ``integers(0, n, size=2)``
    at about half its cost: below 2**32 numpy draws each value through PCG64's
    ``next_uint32``, which keeps the spare half of a 64-bit draw in the bit
    generator's state, not in a per-call buffer.
    """
    n = len(pool)
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n))
    return pool[i] if fitness[i] >= fitness[j] else pool[j]


async def ppa_step(members: list[Evaluation], cfg: SolverConfig,
                   domain: Domain, rng: np.random.Generator,
                   evaluate, injected: list[Evaluation]) -> list[Evaluation]:
    """One propagation: fit members send many short runners, unfit few long.

    Each of the pool's ``cfg.size_param`` fittest members, at fitness f,
    spawns ceil(f * 5) runners at per-dimension offsets uniform in
    +-(1 - f) * range.  Parents and evaluated runners are then truncated
    to the best 2 * cfg.size_param.
    """
    pool = members + injected
    selected = [pool[i] for i in _layer_order(pool)[:cfg.size_param]]
    offspring: list[Evaluation] = []
    for rank, parent in enumerate(selected, start=1):
        f = _rank_fitness(rank, len(pool))
        n_runners = math.ceil(f * PPA_MAX_RUNNERS)
        reach = (1.0 - f) * domain.ranges
        low = -reach
        span = reach - low
        for _ in range(n_runners):
            runner = domain.clip(parent.point + _runner_offset(low, span, rng))
            offspring.append(await evaluate(runner))
    combined = selected + offspring
    return [combined[i] for i in _layer_order(combined)[:2 * cfg.size_param]]


@dataclass
class SwarmMember:
    position: np.ndarray
    velocity: np.ndarray
    evaluation: Evaluation
    personal_best: Evaluation


async def pso_step(swarm: list[SwarmMember], cfg: SolverConfig,
                   domain: Domain, rng: np.random.Generator,
                   evaluate, injected: list[Evaluation]) -> list[SwarmMember]:
    """One velocity/position update over the whole swarm.

    Each pending shared solution replaces the currently worst member (its
    velocity reset to zero).  Swarm size never changes.
    """
    for shared in injected:
        worst = _layer_order([m.evaluation for m in swarm])[-1]
        swarm[worst] = SwarmMember(
            shared.point, np.zeros(domain.size), shared, shared)
    best = _layer_order([m.evaluation for m in swarm])[0]
    global_best = swarm[best].evaluation
    clamp = domain.ranges
    for member in swarm:
        r1 = rng.random(domain.size)
        r2 = rng.random(domain.size)
        velocity = (PSO_INERTIA * member.velocity
                    + PSO_COGNITIVE * r1 * (member.personal_best.point
                                            - member.position)
                    + PSO_SOCIAL * r2 * (global_best.point - member.position))
        member.velocity = np.clip(velocity, -clamp, clamp)
        member.position = domain.clip(member.position + member.velocity)
        member.evaluation = await evaluate(member.position)
        if dominates(member.evaluation, member.personal_best):
            member.personal_best = member.evaluation
    return swarm


async def pso_start(members: list[Evaluation], cfg: SolverConfig,
                    domain: Domain, rng: np.random.Generator,
                    evaluate) -> list[SwarmMember]:
    """The swarm: the ``cfg.size_param`` fittest members in rank order, or
    all of them topped up with evaluated random points; velocities zero."""
    if len(members) > cfg.size_param:
        members = [members[i] for i in _layer_order(members)[:cfg.size_param]]
    while len(members) < cfg.size_param:
        members.append(await evaluate(domain.random_point(rng)))
    return [SwarmMember(e.point, np.zeros(domain.size), e, e)
            for e in members]


# ---------------------------------------------------------- DS primitives

def scalarize(z, weight: float) -> float:
    """Collapse two objectives to weight * z1 + (1 - weight) * z2."""
    if len(z) != 2:
        raise ValueError(f"scalarize expects 2 objectives, got {len(z)}")
    return weight * z[0] + (1.0 - weight) * z[1]


def ds_objective(evaluation: Evaluation, weight: float) -> float:
    """Scalar value direct-search methods descend on.

    Bi-objective values are scalarized; any infeasibility adds a penalty of
    INFEASIBILITY_PENALTY * g so descents are pushed back toward the
    feasible region.
    """
    z = evaluation.objectives
    base = z[0] if len(z) == 1 else scalarize(z, weight)
    return base + INFEASIBILITY_PENALTY * max(evaluation.constraint, 0.0)


async def finite_difference_gradient(obj, point: np.ndarray,
                                     domain: Domain) -> np.ndarray:
    """Central-difference gradient per REAL dimension; INTEGER dims get 0.

    Stencil points lie GRADIENT_STEP either side, clipped to the box; the
    difference uses their actual separation, so boundary points degrade to
    one-sided estimates.  Non-finite values zero the affected component.
    """
    n = domain.size
    grad = np.zeros(n)
    integer = domain.integer_mask
    for i in range(n):
        if integer[i]:
            continue
        offset = np.zeros(n)
        offset[i] = GRADIENT_STEP
        hi = domain.clip(point + offset)
        lo = domain.clip(point - offset)
        span = hi[i] - lo[i]
        if span <= 0.0:
            continue
        f_hi = await obj(hi)
        f_lo = await obj(lo)
        if math.isfinite(f_hi) and math.isfinite(f_lo):
            grad[i] = (f_hi - f_lo) / span
    return grad


async def line_search(obj, point: np.ndarray, direction: np.ndarray,
                      domain: Domain, f0: float) -> tuple[np.ndarray, float]:
    """Backtracking search along ``direction`` from ``point``, valued f0.

    The first trial step moves the tightest dimension 10% of its range;
    on failure the step halves (up to 20 times), on first success it doubles
    while that keeps improving.  Trial points are clipped to the box.
    Returns the best point found, which is ``point`` itself if nothing
    improved.
    """
    moving = np.abs(direction) > 0.0
    if not moving.any():
        return point, f0
    alpha = 0.1 * float((domain.ranges[moving] / np.abs(direction[moving])).min())
    for _ in range(LINE_SEARCH_MAX_HALVINGS + 1):
        candidate = domain.clip(point + alpha * direction)
        if not (candidate == point).all():
            value = await obj(candidate)
            if value < f0:
                return await _extend(obj, point, direction, domain,
                                     alpha, candidate, value)
        alpha *= 0.5
    return point, f0


async def _extend(obj, point, direction, domain, alpha, best_point, best_value):
    while True:
        alpha *= 2.0
        candidate = domain.clip(point + alpha * direction)
        if (candidate == best_point).all():
            return best_point, best_value
        value = await obj(candidate)
        if value < best_value:
            best_point, best_value = candidate, value
        else:
            return best_point, best_value


async def _integer_axis_search(obj, point: np.ndarray, dim: int,
                               domain: Domain, f0: float
                               ) -> tuple[np.ndarray, float]:
    """Search one INTEGER dimension over steps +-1, +-2, +-4, ..."""
    best_point, best_value = point, f0
    for sign in (1.0, -1.0):
        step = 1.0
        while True:
            offset = np.zeros(domain.size)
            offset[dim] = sign * step
            candidate = domain.clip(point + offset)
            if candidate[dim] == best_point[dim]:
                break
            value = await obj(candidate)
            if value < best_value:
                best_point, best_value = candidate, value
                step *= 2.0
            else:
                break
        if best_value < f0:
            break
    return best_point, best_value


# ------------------------------------------------------------- DS steps

async def sd_step(obj, point: np.ndarray, value: float, domain: Domain
                  ) -> Optional[tuple[np.ndarray, float]]:
    """One line search down the finite-difference gradient.

    None once the gradient vanishes or the step is below tolerance.
    """
    gradient = await finite_difference_gradient(obj, point, domain)
    if not gradient.any():
        return None
    new_point, new_value = await line_search(obj, point, -gradient, domain,
                                             value)
    if float(np.linalg.norm(new_point - point)) < DESCENT_STEP_TOLERANCE:
        return None
    return new_point, new_value


async def cs_step(obj, point: np.ndarray, value: float, domain: Domain
                  ) -> Optional[tuple[np.ndarray, float]]:
    """One coordinate-search sweep: a line search along each axis in turn.

    REAL dimensions use the backtracking line search in + then - direction;
    INTEGER dimensions try doubling integer steps.  None after a sweep with
    no improvement.
    """
    improved = False
    for dim in range(domain.size):
        if domain.integer_mask[dim]:
            point, new_value = await _integer_axis_search(
                obj, point, dim, domain, value)
        else:
            axis = np.zeros(domain.size)
            axis[dim] = 1.0
            candidate, new_value = await line_search(
                obj, point, axis, domain, value)
            if new_value >= value:
                candidate, new_value = await line_search(
                    obj, point, -axis, domain, value)
            point = candidate
        if new_value < value:
            value = new_value
            improved = True
    return (point, value) if improved else None


# ---------------------------------------------------------------- drivers

def _drain_injected(share_inbox: Mailbox) -> list[Evaluation]:
    """Take every shared solution waiting in the inbox, without blocking."""
    injected = []
    while (message := share_inbox.take_nowait()) is not None:
        injected.append(message.content)
    return injected


def _push_shared(starts: list, share_inbox: Mailbox) -> None:
    starts.extend(e.point for e in _drain_injected(share_inbox))


async def descend(starts: list[np.ndarray], domain: Domain, obj,
                  share_inbox: Mailbox, step) -> NoReturn:
    """The DS driver: multi-start descent with one kind's ``step``.

    The start list is a stack: shared solutions arriving mid-run are pushed
    onto it, so the search keeps jumping to the currently best-known area;
    with no start left it parks on the share channel.  A start is abandoned
    when ``step(obj, point, value, domain)`` returns None or after
    DESCENT_MAX_ITERATIONS steps.  It ends only with the run, by
    ``MailboxClosed``.
    """
    while True:
        _push_shared(starts, share_inbox)
        while not starts:
            starts.append((await share_inbox.take()).content.point)
        point = starts.pop()
        value = await obj(point)
        for _ in range(DESCENT_MAX_ITERATIONS):
            _push_shared(starts, share_inbox)
            moved = await step(obj, point, value, domain)
            if moved is None:
                break
            point, value = moved


# kind -> (class, step, start).  The class picks the driver that runs the
# step: MH is solver_loop's generation loop, DS is ``descend``.  An MH kind's
# start, if any, turns the evaluated initial population into its state.
SOLVER_KINDS = {
    "GA": ("MH", ga_step, None),
    "PPA": ("MH", ppa_step, None),
    "PSO": ("MH", pso_step, pso_start),
    "SD": ("DS", sd_step, None),
    "CS": ("DS", cs_step, None),
}


async def solver_loop(cfg: SolverConfig, seed: int, domain: Domain,
                      initial_points: list[np.ndarray],
                      scheduler_inbox: Mailbox, share_inbox: Mailbox,
                      record: RunRecord) -> NoReturn:
    """Run one solver instance until the scheduler shuts the system down.

    Every solver receives the same ``initial_points`` (the shared initial
    population, read-only points used as they are).  An MH solver evaluates
    them and steps one generation at a time, each with the shared solutions
    that arrived since the last, drawing on an RNG seeded with ``seed``; a
    DS solver hands them to ``descend`` as its stack of starts.  Each new best
    of its own goes to ``record`` as a ``solver-improvement`` event.  It
    ends by ``MailboxClosed``, its normal end, when the shutdown reaches it.
    """
    solver_class, step, start = SOLVER_KINDS[cfg.kind]
    rng = np.random.default_rng(seed)
    local_best: Optional[Evaluation] = None

    async def evaluate(point) -> Evaluation:
        nonlocal local_best
        evaluation = await proxy_objective(
            point, cfg.label, scheduler_inbox, cfg.priority)
        if len(evaluation.objectives) == 1 and not evaluation.failed:
            if local_best is None or dominates(evaluation, local_best):
                local_best = evaluation
                record.solver_improvement(cfg.label, solver_class,
                                          evaluation)
        return evaluation

    async def obj(point) -> float:
        return ds_objective(await evaluate(point), cfg.weight)

    if solver_class == "DS":
        await descend(list(initial_points), domain, obj, share_inbox, step)
    else:
        state = [await evaluate(p) for p in initial_points]
        if start is not None:
            state = await start(state, cfg, domain, rng, evaluate)
        while True:
            state = await step(state, cfg, domain, rng, evaluate,
                               _drain_injected(share_inbox))
