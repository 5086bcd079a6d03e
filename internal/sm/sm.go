// Package sm implements the state machines of §2.1: a dispatcher that
// exports named actions, executes them against the environment, and emits
// the start/completion events of §2.2.
//
// In contrast to classical state-machine replication [Sch93], actions may
// be non-deterministic (each machine carries a seeded random source exposed
// to action bodies) and may have side effects on third-party entities
// (applied through the internal/env environment, which couples each effect
// with its completion event atomically).
//
// The machine implements the paper's execute dispatch (§5.4): a request
// names an action; derived cancellation and commit actions (for undoable
// actions) are dispatched to the environment's transaction machinery
// automatically, with optional application hooks.
package sm

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"xability/internal/action"
	"xability/internal/env"
	"xability/internal/event"
)

// Ctx is passed to action bodies.
type Ctx struct {
	// Req is the request being executed, including its protocol tags
	// (request ID and round).
	Req action.Request
	// Rand is the machine's seeded random source: the sanctioned origin of
	// action non-determinism.
	Rand *rand.Rand
	// Replica names the executing replica.
	Replica string
}

// Body computes an action's side effect and output value. It runs under the
// environment lock and must not block.
type Body func(ctx *Ctx) action.Value

// Hook observes a transaction rollback. It runs under the environment lock.
type Hook func(ctx *Ctx)

type undoSpec struct {
	exec       Body
	onRollback Hook
}

// Machine is one replica's copy of the service's state machine.
type Machine struct {
	replica string
	reg     *action.Registry
	env     *env.Env

	mu       sync.Mutex
	rng      *rand.Rand
	idem     map[action.Name]Body
	undo     map[action.Name]undoSpec
	possible map[action.Name]func(iv, ov action.Value) bool
	apply    map[action.Name]func(ctx *Ctx, decided action.Value)
}

// New builds a machine for a replica over a shared environment. Each
// replica's machine gets its own seed so replicas are independently
// non-deterministic.
func New(replica string, reg *action.Registry, e *env.Env, seed int64) *Machine {
	return &Machine{
		replica:  replica,
		reg:      reg,
		env:      e,
		rng:      rand.New(rand.NewPCG(0, uint64(seed))),
		idem:     make(map[action.Name]Body),
		undo:     make(map[action.Name]undoSpec),
		possible: make(map[action.Name]func(iv, ov action.Value) bool),
		apply:    make(map[action.Name]func(ctx *Ctx, decided action.Value)),
	}
}

// Registry returns the machine's action vocabulary.
func (m *Machine) Registry() *action.Registry { return m.reg }

// Env returns the machine's environment.
func (m *Machine) Env() *env.Env { return m.env }

// Replica returns the replica name.
func (m *Machine) Replica() string { return m.replica }

// HandleIdempotent registers the body of an idempotent action. The action
// must already be registered as idempotent in the registry.
func (m *Machine) HandleIdempotent(a action.Name, body Body) error {
	if !m.reg.IsIdempotent(a) {
		return fmt.Errorf("sm: %q is not a registered idempotent action", a)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.idem[a] = body
	return nil
}

// HandleUndoable registers the body of an undoable action together with an
// optional rollback hook invoked when a cancellation rolls back an applied
// effect.
func (m *Machine) HandleUndoable(a action.Name, body Body, onRollback Hook) error {
	if !m.reg.IsUndoable(a) {
		return fmt.Errorf("sm: %q is not a registered undoable action", a)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undo[a] = undoSpec{exec: body, onRollback: onRollback}
	return nil
}

// SetPossibleReply registers the PossibleReply predicate of §3.4 for an
// action: which output values are legal replies for a given input. Without
// a predicate every value is considered possible.
func (m *Machine) SetPossibleReply(a action.Name, pred func(iv, ov action.Value) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.possible[a] = pred
}

// PossibleReply implements the §3.4 check for requirement R4.
func (m *Machine) PossibleReply(req action.Request, ov action.Value) bool {
	m.mu.Lock()
	pred := m.possible[req.Action]
	m.mu.Unlock()
	if pred == nil {
		return true
	}
	return pred(req.Input, ov)
}

// SetApply registers the deterministic replay hook for an action: how a
// replica that did not execute a request folds the agreed result into its
// local state (the multi-request state extension, DESIGN.md §2).
func (m *Machine) SetApply(a action.Name, fn func(ctx *Ctx, decided action.Value)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.apply[a] = fn
}

// Apply replays an agreed result through the replica's apply hook, if any.
func (m *Machine) Apply(req action.Request, decided action.Value) {
	m.mu.Lock()
	fn := m.apply[req.Action]
	m.mu.Unlock()
	if fn != nil {
		fn(&Ctx{Req: req, Rand: m.rng, Replica: m.replica}, decided)
	}
}

// IsIdempotent and IsUndoable expose the registry classification with the
// paper's method names (Figure 7 uses S.is-idempotent / S.is-undoable).
func (m *Machine) IsIdempotent(req action.Request) bool { return m.reg.IsIdempotent(req.Action) }

// IsUndoable reports whether the request's action is undoable.
func (m *Machine) IsUndoable(req action.Request) bool { return m.reg.IsUndoable(req.Action) }

// Execute dispatches a request (the paper's S.execute, §5.4): it emits the
// start event, applies the action through the environment, and returns the
// output value. A failure (injected, or an interleaved cancellation) leaves
// the start event dangling and returns the error, exactly as §2.2
// prescribes for failed executions.
func (m *Machine) Execute(req action.Request) (action.Value, error) {
	base, kind := action.Base(req.Action)
	if kind == action.KindIdempotent { // plain name: classify via registry
		k, ok := m.reg.Kind(req.Action)
		if !ok {
			return "", fmt.Errorf("sm: unknown action %q", req.Action)
		}
		kind = k
	}
	ctx := &Ctx{Req: req, Rand: m.rng, Replica: m.replica}
	iv := req.EffectiveInput()
	obs := m.env.Observer()

	switch kind {
	case action.KindIdempotent:
		m.mu.Lock()
		body := m.idem[req.Action]
		m.mu.Unlock()
		if body == nil {
			return "", fmt.Errorf("sm: no body for idempotent action %q", req.Action)
		}
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.replica))
		return m.env.ExecIdempotent(req.Action, iv, func() action.Value { return body(ctx) })

	case action.KindUndoable:
		m.mu.Lock()
		spec, ok := m.undo[req.Action]
		m.mu.Unlock()
		if !ok {
			return "", fmt.Errorf("sm: no body for undoable action %q", req.Action)
		}
		epoch := m.env.ReactivateUndoable(req.Action, iv)
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.replica))
		return m.env.ExecUndoable(req.Action, iv, epoch, func() action.Value { return spec.exec(ctx) })

	case action.KindCancel:
		m.mu.Lock()
		spec := m.undo[base]
		m.mu.Unlock()
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.replica))
		var hook func()
		if spec.onRollback != nil {
			hook = func() { spec.onRollback(ctx) }
		}
		if err := m.env.CancelUndoable(base, iv, hook); err != nil {
			return "", err
		}
		return action.Nil, nil

	case action.KindCommit:
		obs.Observe(event.S(req.Action, iv).WithAnnotation(m.replica))
		if err := m.env.CommitUndoable(base, iv); err != nil {
			return "", err
		}
		return action.Nil, nil

	default:
		return "", fmt.Errorf("sm: cannot execute %q (kind %v)", req.Action, kind)
	}
}
