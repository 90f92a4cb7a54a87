package engine

import (
	"context"

	"repro/internal/cq"
	"repro/internal/storage"
)

// answer is AnswerBudget under context.Background() with no budget.
func answer(e *Engine, q *cq.Query) ([]storage.Tuple, error) {
	return e.AnswerBudget(context.Background(), q, Budget{})
}

// execute is ExecBudget under context.Background() with no budget.
func execute(pq *PreparedQuery, args ...string) ([]storage.Tuple, error) {
	return pq.ExecBudget(context.Background(), Budget{}, args...)
}

// update is ApplyUpdateBudget under context.Background() with no budget.
func update(e *Engine, inserts, deletes map[string][]storage.Tuple) error {
	return e.ApplyUpdateBudget(context.Background(), inserts, deletes, Budget{})
}
