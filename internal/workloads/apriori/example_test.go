package apriori_test

import (
	"fmt"

	"pareto/internal/workloads/apriori"
)

// Mine the textbook market-basket dataset at absolute support 2.
func ExampleMine() {
	txns := []apriori.Transaction{
		{1, 3, 4},
		{2, 3, 5},
		{1, 2, 3, 5},
		{2, 5},
	}
	res, err := apriori.Mine(apriori.NewPartition(txns), apriori.Config{MinSupport: 2})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Frequent {
		if len(p.Items) == 3 {
			fmt.Printf("itemset %v appears in %d transactions\n", p.Items, p.Support)
		}
	}
	// Output:
	// itemset [2 3 5] appears in 2 transactions
}

// The Savasere partitioned algorithm: local mining plus a global
// pruning pass gives exactly the centralized answer.
func ExampleMineDistributed() {
	txns := []apriori.Transaction{
		{1, 3, 4}, {2, 3, 5}, {1, 2, 3, 5}, {2, 5},
		{1, 3, 4}, {2, 3, 5}, {1, 2, 3, 5}, {2, 5},
	}
	parts := [][]apriori.Transaction{txns[:4], txns[4:]}
	res, err := apriori.MineDistributed(parts, 0.5, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d frequent itemsets, %d candidates pruned\n",
		len(res.Frequent), res.FalsePositives)
	// Output:
	// 9 frequent itemsets, 0 candidates pruned
}
