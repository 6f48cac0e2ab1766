module lockss/bench

go 1.24

require lockss v0.0.0

replace lockss => ../
