module freecursive/bench

go 1.24

require freecursive v0.0.0

replace freecursive => ../
