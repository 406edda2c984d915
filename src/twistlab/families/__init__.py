"""One module per group family, named after it, with the cocycle kinds that
live only on that family.

`groups.FAMILIES` and `cocycles.KINDS` name the module and class of each
family and kind; `groups.get_group` and `cocycles.build_cocycle` import a
module the first time a spec names it, so a process compiles only the
families it uses.
"""
