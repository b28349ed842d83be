"""The five solver kinds, run as agents against the proxy objective.

Population methods (GA, PPA, PSO) and direct-search methods (SD, CS) never
see the model: every candidate goes through ``proxy_objective``, which
routes it to the scheduler and waits on a reply future.  Each
kind also has its own policy for absorbing solutions broadcast by the
scheduler when sharing is on:

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from coopt.core import Domain, Evaluation, dominates, freeze_point, pareto_key
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind
from coopt.scheduler import EvaluationRequest

MH_KINDS = ("GA", "PPA", "PSO")
DS_KINDS = ("SD", "CS")

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


class SolverTerminated(Exception):
    """The run is over: a mailbox the solver depends on was closed."""


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
    seed: int = 0
    instance_label: str = ""

    def __post_init__(self):
        if self.kind not in MH_KINDS + DS_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.size_param < 1:
            raise ValueError("size_param must be >= 1")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")

    @property
    def solver_class(self) -> str:
        return "MH" if self.kind in MH_KINDS else "DS"

    @property
    def label(self) -> str:
        return self.instance_label or self.kind.lower()


async def proxy_objective(point: np.ndarray, solver_id: str,
                          scheduler_inbox: Mailbox,
                          priority: int = 1) -> Evaluation:
    """Have the scheduler evaluate one point; block until the result returns.

    A refused request's future raises ``MailboxClosed``.
    """
    reply = asyncio.get_running_loop().create_future()
    request = EvaluationRequest(freeze_point(point), reply, solver_id, priority)
    try:
        await scheduler_inbox.put(
            Message(MessageKind.EVALUATEPOINT, solver_id, request))
        return await reply
    except MailboxClosed as exc:
        raise SolverTerminated(solver_id) from exc


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
        fitness[i] = (n - rank + 1) / (n + 1)
    return fitness


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


def _best_index(fitness: np.ndarray) -> int:
    return int(np.argmax(fitness))


# ------------------------------------------------------------- MH steppers

async def ga_step(members: list[Evaluation], cfg: SolverConfig,
                  domain: Domain, rng: np.random.Generator,
                  evaluate, injected: list[Evaluation]) -> list[Evaluation]:
    """One generation: tournament selection, arithmetic crossover, mutation.

    Shared solutions join the parent pool first; the best member survives
    unchanged (elitism); output size is always ``cfg.size_param``.
    """
    pool = members + list(injected)
    fitness = assign_fitness(pool)
    elite = pool[_best_index(fitness)]
    n = domain.size
    sigma = MUTATION_SIGMA_FRACTION * domain.ranges
    fitness_values = fitness.tolist()
    children: list[Evaluation] = [elite]
    while len(children) < cfg.size_param:
        p1 = _tournament(pool, fitness_values, rng)
        p2 = _tournament(pool, fitness_values, rng)
        if rng.random() < CROSSOVER_RATE:
            alpha = rng.random()
            child = alpha * p1.point + (1.0 - alpha) * p2.point
        else:
            child = p1.point.copy()
        mutate = rng.random(n) < (1.0 / n)
        noise = rng.normal(0.0, sigma)
        child = domain.clip(np.where(mutate, child + noise, child))
        children.append(await evaluate(child))
    return children


def _tournament(pool, fitness: list[float], rng) -> Evaluation:
    i, j = rng.integers(0, len(pool), size=2).tolist()
    return pool[i] if fitness[i] >= fitness[j] else pool[j]


async def ppa_step(members: list[Evaluation], cfg: SolverConfig,
                   domain: Domain, rng: np.random.Generator,
                   evaluate, injected: list[Evaluation]) -> list[Evaluation]:
    """One propagation: fit members send many short runners, unfit few long.

    A member with fitness f spawns ceil(f * 5) runners at per-dimension
    offsets uniform in +-(1 - f) * range.  Parents and evaluated runners are
    then truncated to the best 2 * cfg.size_param.
    """
    pool = members + list(injected)
    fitness = assign_fitness(pool).tolist()
    by_fitness = sorted(range(len(pool)), key=lambda i: -fitness[i])
    selected = [pool[i] for i in by_fitness[:cfg.size_param]]
    selected_fitness = [fitness[i] for i in by_fitness[:cfg.size_param]]
    offspring: list[Evaluation] = []
    for parent, f in zip(selected, selected_fitness):
        n_runners = math.ceil(f * PPA_MAX_RUNNERS)
        reach = (1.0 - f) * domain.ranges
        low = -reach
        for _ in range(n_runners):
            runner = domain.clip(parent.point + rng.uniform(low, reach))
            offspring.append(await evaluate(runner))
    combined = selected + offspring
    combined_fitness = assign_fitness(combined).tolist()
    keep = sorted(range(len(combined)), key=lambda i: -combined_fitness[i])
    return [combined[i] for i in keep[:2 * cfg.size_param]]


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
        fitness = assign_fitness([m.evaluation for m in swarm])
        worst = int(np.argmin(fitness))
        swarm[worst] = SwarmMember(
            np.array(shared.point), np.zeros(domain.size), shared, shared)
    fitness = assign_fitness([m.evaluation for m in swarm])
    global_best = swarm[_best_index(fitness)].evaluation
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


async def finite_difference_gradient(obj, point: np.ndarray, domain: Domain,
                                     h: float = GRADIENT_STEP) -> np.ndarray:
    """Central-difference gradient per REAL dimension; INTEGER dims get 0.

    Stencil points are clipped to the box and the difference uses their
    actual separation, so boundary points degrade to one-sided estimates.
    Non-finite values zero the affected component.
    """
    n = domain.size
    grad = np.zeros(n)
    integer = domain.integer_mask
    for i in range(n):
        if integer[i]:
            continue
        offset = np.zeros(n)
        offset[i] = h
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
                      domain: Domain, f0: Optional[float] = None
                      ) -> tuple[np.ndarray, float]:
    """Backtracking search along ``direction`` from ``point``.

    The first trial step moves the tightest dimension 10% of its range;
    on failure the step halves (up to 20 times), on first success it doubles
    while that keeps improving.  Trial points are clipped to the box.
    Returns the best point found, which is ``point`` itself if nothing
    improved.
    """
    direction = np.asarray(direction, dtype=float)
    moving = np.abs(direction) > 0.0
    if not moving.any():
        value = await obj(point) if f0 is None else f0
        return point, value
    if f0 is None:
        f0 = await obj(point)
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


# ------------------------------------------------------------- DS drivers

def _push_shared(starts: list, share_inbox: Mailbox) -> None:
    starts.extend(np.array(e.point) for e in _drain_injected(share_inbox))


async def _next_start(starts: list, share_inbox: Mailbox) -> np.ndarray:
    """Pop the most recent start; park on the share channel when empty."""
    _push_shared(starts, share_inbox)
    while not starts:
        try:
            message = await share_inbox.take()
        except MailboxClosed as exc:
            raise SolverTerminated("no more starts") from exc
        if message.kind is MessageKind.SHAREBEST:
            starts.append(np.array(message.content.point))
    return starts.pop()


async def sd_run(starts: list[np.ndarray], cfg: SolverConfig, domain: Domain,
                 obj, share_inbox: Mailbox) -> None:
    """Multi-start steepest descent with finite-difference gradients.

    The start list is a stack: shared solutions arriving mid-run are pushed
    onto it, so the search keeps jumping to the currently best-known area.
    """
    while True:
        point = await _next_start(starts, share_inbox)
        value = await obj(point)
        for _ in range(DESCENT_MAX_ITERATIONS):
            _push_shared(starts, share_inbox)
            gradient = await finite_difference_gradient(obj, point, domain)
            if not gradient.any():
                break
            new_point, new_value = await line_search(
                obj, point, -gradient, domain, f0=value)
            if float(np.linalg.norm(new_point - point)) < DESCENT_STEP_TOLERANCE:
                break
            point, value = new_point, new_value


async def cs_run(starts: list[np.ndarray], cfg: SolverConfig, domain: Domain,
                 obj, share_inbox: Mailbox) -> None:
    """Multi-start coordinate search: line searches along each axis in turn.

    REAL dimensions use the backtracking line search in + then - direction;
    INTEGER dimensions try doubling integer steps.  A start is abandoned
    after a sweep with no improvement or 50 sweeps.
    """
    integer = domain.integer_mask
    while True:
        point = await _next_start(starts, share_inbox)
        value = await obj(point)
        for _ in range(DESCENT_MAX_ITERATIONS):
            _push_shared(starts, share_inbox)
            improved = False
            for dim in range(domain.size):
                if integer[dim]:
                    point, new_value = await _integer_axis_search(
                        obj, point, dim, domain, value)
                else:
                    axis = np.zeros(domain.size)
                    axis[dim] = 1.0
                    candidate, new_value = await line_search(
                        obj, point, axis, domain, f0=value)
                    if new_value >= value:
                        candidate, new_value = await line_search(
                            obj, point, -axis, domain, f0=value)
                    point = candidate
                if new_value < value:
                    value = new_value
                    improved = True
            if not improved:
                break


# ------------------------------------------------------------ solver loop

def _drain_injected(share_inbox: Mailbox) -> list[Evaluation]:
    """Take every shared solution waiting in the inbox, without blocking."""
    injected = []
    while (message := share_inbox.take_nowait()) is not None:
        if message.kind is MessageKind.SHAREBEST:
            injected.append(message.content)
    return injected


async def solver_loop(cfg: SolverConfig, domain: Domain,
                      initial_points: list[np.ndarray],
                      scheduler_inbox: Mailbox, share_inbox: Mailbox,
                      events: Optional[Callable[[dict], None]] = None) -> None:
    """Run one solver instance until the scheduler shuts the system down.

    Every solver receives the same ``initial_points`` (the shared initial
    population); population methods evaluate them and iterate generations,
    direct-search methods use them as their stack of starts.
    """
    rng = np.random.default_rng(cfg.seed)
    emit = events or (lambda record: None)
    local_best: Optional[Evaluation] = None

    async def evaluate(point) -> Evaluation:
        nonlocal local_best
        evaluation = await proxy_objective(
            point, cfg.label, scheduler_inbox, cfg.priority)
        if len(evaluation.objectives) == 1 and not evaluation.failed:
            if local_best is None or dominates(evaluation, local_best):
                local_best = evaluation
                emit({
                    "event": "solver-improvement",
                    "solver": cfg.label,
                    "class": cfg.solver_class,
                    "seq": evaluation.seq,
                    "z": list(evaluation.objectives),
                })
        return evaluation

    try:
        if cfg.kind in DS_KINDS:
            async def obj(point) -> float:
                return ds_objective(await evaluate(point), cfg.weight)

            starts = [np.array(p) for p in initial_points]
            runner = sd_run if cfg.kind == "SD" else cs_run
            await runner(starts, cfg, domain, obj, share_inbox)
        else:
            members = [await evaluate(p) for p in initial_points]
            if cfg.kind == "PSO":
                await _pso_loop(members, cfg, domain, rng, evaluate,
                                share_inbox)
            else:
                step = ga_step if cfg.kind == "GA" else ppa_step
                while True:
                    injected = _drain_injected(share_inbox)
                    members = await step(members, cfg, domain, rng,
                                         evaluate, injected)
    except (SolverTerminated, MailboxClosed):
        return


async def _pso_loop(members: list[Evaluation], cfg: SolverConfig,
                    domain: Domain, rng: np.random.Generator,
                    evaluate, share_inbox: Mailbox) -> None:
    """Build the swarm at cfg.size_param members, then iterate steps."""
    if len(members) > cfg.size_param:
        fitness = assign_fitness(members)
        keep = sorted(range(len(members)), key=lambda i: -fitness[i])
        members = [members[i] for i in keep[:cfg.size_param]]
    while len(members) < cfg.size_param:
        members.append(await evaluate(domain.random_point(rng)))
    swarm = [SwarmMember(np.array(e.point), np.zeros(domain.size), e, e)
             for e in members]
    while True:
        injected = _drain_injected(share_inbox)
        swarm = await pso_step(swarm, cfg, domain, rng, evaluate, injected)
